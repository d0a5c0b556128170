//! Fix-campaign goldens: reduced configurations of the three benchmark
//! workloads, pinned bit for bit.
//!
//! Each golden holds the campaign digest and tallies, plus two hashes the
//! digest cannot see. The digest folds `patch_loc`, not the patch text, so
//! a splice that printed different bytes with the same line count would
//! still match it. The goldens therefore also pin an FNV-1a hash over
//! every winning patch's bytes and one over every tournament roster's
//! `(strategy, outcome)` list, both taken by replaying each case through
//! `DrFix::fix_case` with the campaign's per-case seed.
//!
//! The configurations mirror `drbench`'s workloads (same seed derivation,
//! shards, detection runs and tournament) at a fraction of the cases.

use corpus::stream::{CorpusStream, StreamConfig, StreamFamily};
use drfix::campaign::{run_campaign, CampaignConfig, CampaignMode};
use drfix::fleet::{derive_case_seed, fnv1a64_fold, FNV1A_OFFSET};
use drfix::{DrFix, PipelineConfig, TournamentConfig};

/// `drbench`'s default stream seed; its pipeline seed is `seed ^ SEED`.
const SEED: u64 = 0xD27F17;

/// `drbench`'s held-out stream seed, kept out of tuning.
const HELD_OUT_SEED: u64 = 4027193;

fn config(
    seed: u64,
    family: StreamFamily,
    mode: CampaignMode,
    cases: usize,
    validation_runs: Option<u32>,
) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(cases, 8, StreamConfig { family, seed });
    cfg.workers = 2;
    cfg.mode = mode;
    cfg.checkpoint_every = 64;
    cfg.pipeline = PipelineConfig {
        seed: seed ^ SEED,
        detect_runs: 12,
        ..PipelineConfig::default()
    };
    if let Some(runs) = validation_runs {
        cfg.pipeline.validation_runs = runs;
    }
    if mode == CampaignMode::Fix {
        cfg.pipeline.tournament = Some(TournamentConfig::default());
    }
    cfg
}

struct Golden {
    digest: u64,
    tallies: &'static str,
    /// FNV-1a over every fixed case's index and patched sources.
    patches: u64,
    /// FNV-1a over every raced case's index and roster rows.
    rosters: u64,
}

/// Hashes the winning patches and the rosters of every case of `cfg`.
fn replay_hashes(cfg: &CampaignConfig) -> (u64, u64) {
    let stream = CorpusStream::new(cfg.stream);
    let (mut patches, mut rosters) = (FNV1A_OFFSET, FNV1A_OFFSET);
    for i in 0..cfg.cases {
        let case = stream.case(i);
        let mut p = cfg.pipeline.clone();
        p.seed = derive_case_seed(cfg.pipeline.seed, i as u64);
        let out = DrFix::new(p, None).fix_case(&case.files, &case.test);
        if let Some(patch) = &out.patch {
            patches = fnv1a64_fold(patches, &(i as u64).to_le_bytes());
            for (name, src) in patch {
                patches = fnv1a64_fold(patches, name.as_bytes());
                patches = fnv1a64_fold(patches, src.as_bytes());
            }
        }
        if let Some(t) = &out.tournament {
            rosters = fnv1a64_fold(rosters, &(i as u64).to_le_bytes());
            for c in &t.candidates {
                let row = format!("{:?}", (c.strategy, &c.outcome));
                rosters = fnv1a64_fold(rosters, row.as_bytes());
            }
        }
    }
    (patches, rosters)
}

fn check(name: &str, cfg: &CampaignConfig, golden: &Golden) {
    let run = run_campaign(cfg, None, None).expect("campaign runs");
    assert!(run.snapshot.completed, "{name}: campaign did not complete");
    let (patches, rosters) = if cfg.mode == CampaignMode::Fix {
        replay_hashes(cfg)
    } else {
        (FNV1A_OFFSET, FNV1A_OFFSET)
    };
    let got = format!(
        "digest {:#018x}\ntallies {:?}\npatches {patches:#018x}\nrosters {rosters:#018x}",
        run.snapshot.digest(),
        run.snapshot.tallies()
    );
    let want = format!(
        "digest {:#018x}\ntallies {}\npatches {:#018x}\nrosters {:#018x}",
        golden.digest, golden.tallies, golden.patches, golden.rosters
    );
    assert_eq!(got, want, "{name}: golden drifted");
}

#[test]
fn mixed_fix_tournament_campaign_is_pinned() {
    check(
        "mixed/fix/tournament",
        &config(SEED, StreamFamily::Mixed, CampaignMode::Fix, 150, None),
        &Golden {
            digest: 0x2fda0183b6a35d46,
            tallies: "Tallies { cases: 150, raced: 129, fixed: 94, stop_completed: 21, stop_race_exposed: 129, stop_dedup_saturated: 0, stop_budget_exhausted: 0, llm_calls: 1377, validations: 251, rejected_static: 19, detect_vm_steps: 54277, validation_vm_steps: 340843, peak_shadow_bytes: 8796 }",
            patches: 0x3a51d62e732ee496,
            rosters: 0xb4f9f82e44d924a8,
        },
    );
}

#[test]
fn fixable_deep_validation_campaign_is_pinned() {
    check(
        "fixable/fix/1000 schedules",
        &config(SEED, StreamFamily::Fixable, CampaignMode::Fix, 20, Some(1000)),
        &Golden {
            digest: 0x3bc78f640176f62c,
            tallies: "Tallies { cases: 20, raced: 20, fixed: 12, stop_completed: 0, stop_race_exposed: 20, stop_dedup_saturated: 0, stop_budget_exhausted: 0, llm_calls: 227, validations: 43, rejected_static: 1, detect_vm_steps: 2716, validation_vm_steps: 4387508, peak_shadow_bytes: 8760 }",
            patches: 0x0d851dbe40d9377f,
            rosters: 0xeb2f08f30ee8a3a2,
        },
    );
}

#[test]
fn exposure_detect_campaign_is_pinned() {
    check(
        "exposure/detect",
        &config(SEED, StreamFamily::Exposure, CampaignMode::Detect, 600, None),
        &Golden {
            digest: 0x88562da87f0758d0,
            tallies: "Tallies { cases: 600, raced: 304, fixed: 0, stop_completed: 296, stop_race_exposed: 304, stop_dedup_saturated: 0, stop_budget_exhausted: 0, llm_calls: 0, validations: 0, rejected_static: 0, detect_vm_steps: 549909, validation_vm_steps: 0, peak_shadow_bytes: 8720 }",
            patches: FNV1A_OFFSET,
            rosters: FNV1A_OFFSET,
        },
    );
}

#[test]
fn mixed_fix_tournament_campaign_at_the_held_out_seed_is_pinned() {
    check(
        "mixed/fix/tournament at the held-out seed",
        &config(HELD_OUT_SEED, StreamFamily::Mixed, CampaignMode::Fix, 150, None),
        &Golden {
            digest: 0x210e9f657df63187,
            tallies: "Tallies { cases: 150, raced: 123, fixed: 85, stop_completed: 27, stop_race_exposed: 123, stop_dedup_saturated: 0, stop_budget_exhausted: 0, llm_calls: 1290, validations: 256, rejected_static: 20, detect_vm_steps: 62935, validation_vm_steps: 346945, peak_shadow_bytes: 8788 }",
            patches: 0xf40eba78e222774a,
            rosters: 0xd9db1a8af02ff51a,
        },
    );
}
