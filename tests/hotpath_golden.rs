//! Golden pinning of the VM + FastTrack observable behaviour across the
//! hot-path optimization pass.
//!
//! The optimization contract is *bit-identical semantics*: race reports
//! (stable bug hashes), schedule signatures, campaign schedule counts,
//! executed instruction counts and end-to-end fix outcomes on the
//! exposure corpus must not change when the interpreter or detector hot
//! paths are rewritten. The goldens in
//! `tests/goldens/hotpath_goldens.json` were captured on the
//! pre-optimization tree and are compared verbatim here.
//!
//! Every campaign entry also pins the campaign's full
//! [`govm::RunCounters`] — VM steps, scheduling points, the detector's
//! fast-path, owner-cache and clock counters, stack snapshots and the
//! shadow lifecycle gauges — exactly. Campaigns run on each case's
//! racy rendition (the reproduce step) and then on each human fix (the
//! validate step, where a fix campaign spends most of its
//! instructions). With `tests/lockregime_golden.rs` (SyncHeavy,
//! LargeHeap) and `tests/shadowgc_golden.rs` (Churn) these goldens are
//! the one gate on VM and detector cost: any drift is a failure.
//!
//! Regenerate (only for *intentional* semantic changes) with:
//!
//! ```text
//! DRFIX_UPDATE_GOLDENS=1 cargo test --test hotpath_golden
//! ```

use corpus::CorpusConfig;
use drfix::{DrFix, PipelineConfig, RagMode};
use govm::{
    compile_sources, derive_seed, run_test_many, run_test_with, CompileOptions, RunCounters,
    SchedulePolicy, TestConfig, VmOptions,
};
use serde::{Deserialize, Serialize};

/// Exposure-corpus size: three cases per Table 3 category.
const CASES: usize = 21;
/// Schedules per pinned campaign.
const CAMPAIGN_RUNS: u32 = 12;
/// Individually pinned per-run schedule signatures per campaign.
const SIG_RUNS: u64 = 4;
/// Campaign base seed (arbitrary, fixed forever).
const CAMPAIGN_SEED: u64 = 0xA11CE;
/// Exposure cases driven through the full fix pipeline.
const FIX_CASES: usize = 6;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct CampaignGolden {
    case: String,
    policy: String,
    /// Sorted stable bug hashes of every distinct race the campaign saw.
    bug_hashes: Vec<String>,
    distinct_schedules: u32,
    duplicate_schedules: u32,
    steps: u64,
    /// Schedule signatures of the first [`SIG_RUNS`] runs, in order.
    schedule_sigs: Vec<u64>,
    /// The campaign's VM and detector cost counters.
    counters: RunCounters,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct FixGolden {
    case: String,
    fixed: bool,
    location: Option<String>,
    scope: Option<String>,
    strategy: Option<String>,
    patch_loc: Option<usize>,
    bug_hash: Option<String>,
    llm_calls: u32,
    validations: u32,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Goldens {
    campaigns: Vec<CampaignGolden>,
    fixes: Vec<FixGolden>,
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/hotpath_goldens.json")
}

fn policies() -> Vec<SchedulePolicy> {
    vec![SchedulePolicy::Random, SchedulePolicy::pct()]
}

fn compute() -> Goldens {
    let corpus = corpus::generate_exposure_corpus(&CorpusConfig {
        eval_cases: CASES,
        db_pairs: 0,
        seed: 0xD0F1,
    });

    // Every racy rendition, then every human fix.
    let racy = corpus.iter().map(|c| (c.id.clone(), &c.files, &c.test));
    let fixed = corpus.iter().filter_map(|c| {
        let fix = c.human_fix.as_ref()?;
        Some((format!("{}-fixed", c.id), fix, &c.test))
    });
    let mut campaigns = Vec::new();
    for (id, files, test) in racy.chain(fixed) {
        let prog = compile_sources(files, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        for policy in policies() {
            let cfg = TestConfig {
                runs: CAMPAIGN_RUNS,
                seed: CAMPAIGN_SEED,
                stop_on_race: false,
                policy: policy.clone(),
                ..TestConfig::default()
            };
            let out = run_test_many(&prog, test, &cfg);
            let mut bug_hashes: Vec<String> = out.races.iter().map(|r| r.bug_hash()).collect();
            bug_hashes.sort();
            let schedule_sigs: Vec<u64> = (0..SIG_RUNS)
                .map(|i| {
                    let seed = derive_seed(CAMPAIGN_SEED, i);
                    run_test_with(
                        &prog,
                        test,
                        VmOptions {
                            seed,
                            policy: policy.clone(),
                            ..VmOptions::default()
                        },
                    )
                    .schedule_sig
                })
                .collect();
            campaigns.push(CampaignGolden {
                case: id.clone(),
                policy: policy.label(),
                bug_hashes,
                distinct_schedules: out.distinct_schedules,
                duplicate_schedules: out.duplicate_schedules,
                steps: out.steps,
                schedule_sigs,
                counters: out.counters,
            });
        }
    }

    // End-to-end fix outcomes: the full GetAFix loop, pinned without
    // retrieval so the goldens do not depend on the example database.
    let cfg = PipelineConfig {
        rag: RagMode::None,
        validation_runs: 8,
        detect_runs: 24,
        seed: 0xFEED,
        detect_policy: SchedulePolicy::pct(),
        ..PipelineConfig::default()
    };
    let pipeline = DrFix::new(cfg, None);
    let mut fixes = Vec::new();
    for case in corpus.iter().take(FIX_CASES) {
        let out = pipeline.fix_case(&case.files, &case.test);
        fixes.push(FixGolden {
            case: case.id.clone(),
            fixed: out.fixed,
            location: out.location.map(|l| format!("{l:?}")),
            scope: out.scope.map(|s| format!("{s:?}")),
            strategy: out.strategy.map(|s| format!("{s:?}")),
            patch_loc: out.patch_loc,
            bug_hash: out.bug_hash,
            llm_calls: out.llm_calls,
            validations: out.validations,
        });
    }

    Goldens { campaigns, fixes }
}

#[test]
fn exposure_corpus_behaviour_matches_pre_optimization_goldens() {
    let actual = compute();
    let path = golden_path();
    if std::env::var("DRFIX_UPDATE_GOLDENS").is_ok() {
        let json = serde_json::to_string(&actual).expect("serialize goldens");
        std::fs::write(&path, json).expect("write goldens");
        eprintln!("goldens rewritten at {}", path.display());
        return;
    }
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing goldens at {}: {e}", path.display()));
    let expected: Goldens = serde_json::from_str(&raw).expect("parse goldens");
    assert_eq!(
        expected.campaigns.len(),
        actual.campaigns.len(),
        "campaign count drifted"
    );
    for (e, a) in expected.campaigns.iter().zip(&actual.campaigns) {
        assert_eq!(
            e, a,
            "campaign golden drifted for {} / {}",
            e.case, e.policy
        );
    }
    assert_eq!(
        expected.fixes.len(),
        actual.fixes.len(),
        "fix count drifted"
    );
    for (e, a) in expected.fixes.iter().zip(&actual.fixes) {
        assert_eq!(e, a, "fix golden drifted for {}", e.case);
    }
}
