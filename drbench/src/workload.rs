//! The benchmark's workloads: three campaign shapes, each a closed-loop
//! batch built the way `campaignctl run` builds its configuration.

use corpus::stream::{StreamConfig, StreamFamily};
use drfix::{CampaignConfig, CampaignMode, PipelineConfig, TournamentConfig};

/// `campaignctl`'s default stream seed; also the base the pipeline seed
/// is derived from (`pipeline.seed = stream seed ^ DEFAULT_SEED`).
pub const DEFAULT_SEED: u64 = 0xD27F17;

/// A seed kept out of tuning: a change that claims a gain on the
/// default seed confirms it on this one too.
pub const HELD_OUT_SEED: u64 = 4_027_193;

/// Queue shards, as `campaignctl` defaults them.
const SHARDS: usize = 8;

/// Folded cases per shard between checkpoints (`campaignctl` default).
const CHECKPOINT_EVERY: usize = 64;

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    family: StreamFamily,
    mode: CampaignMode,
    /// Schedules per validation campaign; `None` keeps the pipeline
    /// default (16).
    validation_runs: Option<u32>,
    /// Cases in one campaign. Every repetition of a run replays the same
    /// campaign, so the digest must repeat exactly.
    pub cases: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // The service configuration: front-end work (parse, statcheck,
    // model, splice) dominates and the VM does little.
    Workload {
        name: "fix-service",
        family: StreamFamily::Mixed,
        mode: CampaignMode::Fix,
        validation_runs: None,
        cases: 1200,
    },
    // The paper's 1000 validation schedules: the same front-end work in
    // absolute terms, but the VM and FastTrack dominate.
    Workload {
        name: "fix-deep-validate",
        family: StreamFamily::Fixable,
        mode: CampaignMode::Fix,
        validation_runs: Some(1000),
        cases: 300,
    },
    // Detection only, at campaign scale: case generation, compile,
    // short stop-on-race VM campaigns and orchestration.
    Workload {
        name: "detect-scale",
        family: StreamFamily::Exposure,
        mode: CampaignMode::Detect,
        validation_runs: None,
        cases: 6000,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Whether the fix arm runs (and `fix_rate` is defined).
    pub fn fixes(&self) -> bool {
        self.mode == CampaignMode::Fix
    }

    /// The campaign configuration `campaignctl run` would build for this
    /// workload: `--family`, `--mode`, `--seed seed`, `--cases cases`,
    /// `--workers workers`, default shards and checkpoint interval.
    pub fn config(&self, seed: u64, cases: usize, workers: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(
            cases,
            SHARDS,
            StreamConfig {
                family: self.family,
                seed,
            },
        );
        cfg.workers = workers.max(1);
        cfg.mode = self.mode;
        cfg.checkpoint_every = CHECKPOINT_EVERY;
        cfg.pipeline = PipelineConfig {
            seed: seed ^ DEFAULT_SEED,
            detect_runs: 12,
            ..PipelineConfig::default()
        };
        if let Some(runs) = self.validation_runs {
            cfg.pipeline.validation_runs = runs;
        }
        if self.mode == CampaignMode::Fix {
            cfg.pipeline.tournament = Some(TournamentConfig::default());
        }
        cfg
    }
}
