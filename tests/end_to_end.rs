//! Cross-crate integration tests: the whole Dr.Fix loop over generated
//! corpora, plus invariants that tie the subsystems together.

use corpus::{generate_eval_corpus, generate_example_db, CorpusConfig};
use drfix::{DrFix, ExampleDb, PipelineConfig, RagMode, ValidationOptions};
use govm::TestConfig;
use synthllm::ModelTier;

fn small_world(n: usize, seed: u64) -> (Vec<corpus::RaceCase>, ExampleDb) {
    let cfg = CorpusConfig {
        eval_cases: n,
        db_pairs: 80,
        seed,
    };
    (
        generate_eval_corpus(&cfg),
        ExampleDb::build(&generate_example_db(&cfg)),
    )
}

fn config(tier: ModelTier, rag: RagMode) -> PipelineConfig {
    PipelineConfig {
        tier,
        rag,
        validation_runs: 8,
        detect_runs: 32,
        seed: 0xE2E,
        ..PipelineConfig::default()
    }
}

#[test]
fn pipeline_fixes_most_fixable_cases_with_skeleton_rag() {
    let (cases, db) = small_world(24, 0x1111);
    let pipeline = DrFix::new(config(ModelTier::O1Preview, RagMode::Skeleton), Some(&db));
    let mut fixed = 0;
    let mut fixable = 0;
    for case in cases.iter().filter(|c| c.fixable && c.hard.is_none()) {
        fixable += 1;
        let o = pipeline.fix_case(&case.files, &case.test);
        if o.fixed {
            fixed += 1;
        }
    }
    assert!(fixable >= 10);
    assert!(
        fixed * 10 >= fixable * 8,
        "o1 + skeleton RAG should fix most plain fixable cases: {fixed}/{fixable}"
    );
}

#[test]
fn produced_patches_really_eliminate_the_race() {
    let (cases, db) = small_world(16, 0x2222);
    let pipeline = DrFix::new(config(ModelTier::O1Preview, RagMode::Skeleton), Some(&db));
    let mut checked = 0;
    for case in cases.iter().filter(|c| c.fixable) {
        let o = pipeline.fix_case(&case.files, &case.test);
        if !o.fixed {
            continue;
        }
        // Re-validate with fresh seeds and more schedules than the
        // pipeline used — the fix must hold, not just have gotten lucky.
        let patch = o.patch.expect("patch present on success");
        let cfg = TestConfig {
            runs: 32,
            seed: 0xF0E5,
            stop_on_race: false,
            ..TestConfig::default()
        };
        let verdict = drfix::validate_patch_report(
            &patch,
            &case.test,
            o.bug_hash.as_deref().unwrap_or(""),
            &cfg,
            &ValidationOptions::default(),
        )
        .verdict;
        assert!(
            verdict.is_ok(),
            "{}: patch failed independent re-validation: {:?}",
            case.id,
            verdict.message()
        );
        checked += 1;
    }
    assert!(checked >= 5, "needed several successful fixes to check");
}

#[test]
fn hard_unfixable_cases_stay_unfixed() {
    let (cases, db) = small_world(40, 0x3333);
    let pipeline = DrFix::new(config(ModelTier::O1Preview, RagMode::Skeleton), Some(&db));
    for case in cases.iter().filter(|c| c.hard.is_some() && !c.fixable) {
        let o = pipeline.fix_case(&case.files, &case.test);
        assert!(
            !o.fixed,
            "{} ({:?}) was designed to be unfixable but got fixed via {:?}",
            case.id, case.hard, o.strategy
        );
    }
}

#[test]
fn rag_never_hurts_and_skeleton_is_best_on_average() {
    let (cases, db) = small_world(30, 0x4444);
    let mut rates = Vec::new();
    for rag in [RagMode::None, RagMode::Raw, RagMode::Skeleton] {
        let pipeline = DrFix::new(config(ModelTier::Gpt4o, rag), Some(&db));
        let fixed = cases
            .iter()
            .filter(|c| pipeline.fix_case(&c.files, &c.test).fixed)
            .count();
        rates.push(fixed);
    }
    let (none, _raw, skel) = (rates[0], rates[1], rates[2]);
    assert!(
        skel > none,
        "skeleton RAG ({skel}) must beat no RAG ({none})"
    );
}

#[test]
fn vendor_files_are_never_patched() {
    let (cases, db) = small_world(40, 0x5555);
    let pipeline = DrFix::new(config(ModelTier::O1Preview, RagMode::Skeleton), Some(&db));
    for case in cases
        .iter()
        .filter(|c| c.files.iter().any(|(n, _)| n.starts_with("vendor_")))
    {
        let o = pipeline.fix_case(&case.files, &case.test);
        if let Some(patch) = &o.patch {
            for (name, content) in patch {
                if name.starts_with("vendor_") {
                    let orig = case
                        .files
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, s)| s.as_str())
                        .unwrap();
                    assert_eq!(content, orig, "vendor file {name} was modified");
                }
            }
        }
    }
}

#[test]
fn bug_hash_is_stable_across_detection_seeds() {
    let (cases, _) = small_world(6, 0x6666);
    let case = cases.iter().find(|c| c.fixable).expect("a fixable case");
    let prog = govm::compile_sources(&case.files, &govm::CompileOptions::default()).unwrap();
    let mut hashes = std::collections::HashSet::new();
    for seed in 0..6 {
        let out = govm::run_test_many(
            &prog,
            &case.test,
            &govm::TestConfig {
                runs: 30,
                seed: seed * 100,
                stop_on_race: true,
                ..govm::TestConfig::default()
            },
        );
        if let Some(r) = out.races.first() {
            hashes.insert(r.bug_hash());
        }
    }
    assert_eq!(hashes.len(), 1, "the bug hash must be schedule-stable");
}
