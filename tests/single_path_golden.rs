//! Single-path golden: the paper's Listing 13 loop (`tournament: None`),
//! pinned bit for bit.
//!
//! `fix_campaign_golden` pins the tournament arm only. This test runs the
//! single-path loop over a slice of the evaluation corpus, one arm per
//! `RagMode`, and pins an FNV-1a hash over every `FixOutcome` field (its
//! `Debug` rendering) and every patched file's bytes, so any change in
//! what the model answers, in what the loop validates, or in what it
//! accepts shows here.

use corpus::CorpusConfig;
use drfix::fleet::{fnv1a64_fold, FNV1A_OFFSET};
use drfix::{ExampleDb, RagMode, SchedulePolicy};
use synthllm::ModelTier;

#[test]
fn single_path_outcomes_are_pinned() {
    let scale = bench::Scale {
        cases: 24,
        db_pairs: 64,
        validation_runs: 4,
        threads: 2,
        policy: SchedulePolicy::Random,
        dedup_streak: Some(8),
    };
    let ccfg = CorpusConfig {
        eval_cases: scale.cases,
        db_pairs: scale.db_pairs,
        seed: 0xD0F1,
    };
    let cases = corpus::generate_eval_corpus(&ccfg);
    let db = ExampleDb::build(&corpus::generate_example_db(&ccfg));
    let mut hash = FNV1A_OFFSET;
    let mut fixed = 0;
    for rag in [RagMode::None, RagMode::Raw, RagMode::Skeleton] {
        let cfg = bench::base_config(&scale, ModelTier::Gpt4Turbo, rag);
        assert!(
            cfg.tournament.is_none(),
            "the arm must run the single-path loop"
        );
        let arm = bench::run_arm(cfg, scale.threads, &cases, Some(&db));
        fixed += arm.fixed();
        for (i, out) in arm.outcomes.iter().enumerate() {
            hash = fnv1a64_fold(hash, &(i as u64).to_le_bytes());
            hash = fnv1a64_fold(hash, format!("{out:?}").as_bytes());
            for (name, src) in out.patch.iter().flatten() {
                hash = fnv1a64_fold(hash, name.as_bytes());
                hash = fnv1a64_fold(hash, src.as_bytes());
            }
        }
    }
    assert!(fixed > 0, "the slice fixed nothing");
    assert_eq!(
        format!("fixed {fixed} hash {hash:#018x}"),
        "fixed 41 hash 0x4a4c5257e1580b14",
        "single-path golden drifted"
    );
}
