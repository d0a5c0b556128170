//! Corpus-wide exposure suite (§4.4.1).
//!
//! Sweeps every fixable Table 3 `RaceCategory` in both corpus flavours
//! — the standard templates (races with no happens-before edge) and the
//! ordering-sensitive exposure templates (races that only manifest when
//! the worker goroutine is starved past a window) — and asserts:
//!
//! 1. the PCT policy exposes each planted race within a bounded number
//!    of schedules, and
//! 2. each ground-truth human fix stays clean under the same budget,
//!    for every built-in policy.
//!
//! Together these are the contract of the validate step: a policy that
//! misses planted races produces false "fixed" verdicts, and a policy
//! that flags fixed code produces false "unfixed" ones.

use corpus::{CorpusConfig, RaceCase, RaceCategory};
use govm::{compile_sources, run_test_many, CompileOptions, SchedulePolicy, TestConfig};

/// Schedule budget for both exposure and cleanliness checks. The
/// `schedules_to_expose` bench measures PCT's median at 1 schedule on
/// the exposure corpus (uniform-random needs 3–26); 48 gives a wide
/// safety margin without slowing the suite.
const BUDGET: u32 = 48;

fn policies() -> Vec<SchedulePolicy> {
    vec![SchedulePolicy::Random, SchedulePolicy::pct()]
}

fn exposure_corpus() -> Vec<RaceCase> {
    corpus::generate_exposure_corpus(&CorpusConfig {
        eval_cases: 14, // two per fixable category
        db_pairs: 0,
        seed: 0xD0F1,
    })
}

fn standard_fixable() -> Vec<RaceCase> {
    corpus::generate_eval_corpus(&CorpusConfig {
        eval_cases: 60,
        db_pairs: 0,
        seed: 0xD0F1,
    })
    .into_iter()
    .filter(|c| c.fixable)
    .collect()
}

fn assert_pct_exposes(case: &RaceCase) {
    let prog = compile_sources(&case.files, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{}: build: {e}", case.id));
    let cfg = TestConfig {
        runs: BUDGET,
        seed: 0x5EED,
        stop_on_race: true,
        policy: SchedulePolicy::pct(),
        ..TestConfig::default()
    };
    let out = run_test_many(&prog, &case.test, &cfg);
    assert!(
        !out.races.is_empty(),
        "{} ({:?}): PCT found no race within {BUDGET} schedules",
        case.id,
        case.category
    );
}

fn assert_fix_clean(case: &RaceCase) {
    let fix = case
        .human_fix
        .as_ref()
        .unwrap_or_else(|| panic!("{} lacks a human fix", case.id));
    let prog = compile_sources(fix, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{} fix: build: {e}", case.id));
    for policy in policies() {
        let cfg = TestConfig {
            runs: BUDGET,
            seed: 0x5EED,
            stop_on_race: false,
            policy: policy.clone(),
            ..TestConfig::default()
        };
        let out = run_test_many(&prog, &case.test, &cfg);
        assert!(
            out.is_clean(),
            "{} ({:?}): human fix dirty under {} — races {:?}, err {:?}, fails {:?}",
            case.id,
            case.category,
            policy.label(),
            out.races
                .iter()
                .map(|r| r.var_name.clone())
                .collect::<Vec<_>>(),
            out.error,
            out.test_failures
        );
    }
}

#[test]
fn exposure_corpus_covers_every_fixable_category() {
    let cases = exposure_corpus();
    for cat in RaceCategory::all() {
        assert!(
            cases.iter().any(|c| c.category == *cat),
            "exposure corpus missing {cat:?}"
        );
    }
}

/// The ordering-sensitive hard tail: PCT must expose every case within
/// the budget (uniform-random typically cannot — that asymmetry is the
/// point of the policy, measured by the `schedules_to_expose` bench).
#[test]
fn pct_exposes_every_ordering_sensitive_race_within_budget() {
    for case in &exposure_corpus() {
        assert_pct_exposes(case);
    }
}

/// Every ordering-sensitive human fix stays clean under the full budget
/// for both policies.
#[test]
fn ordering_sensitive_fixes_stay_clean_under_budget() {
    for case in &exposure_corpus() {
        assert_fix_clean(case);
    }
}

/// The standard Table 3 corpus: PCT exposes every fixable planted race
/// (these have no happens-before edge, so the budget is generous), and
/// the ground-truth fixes stay clean under every policy.
#[test]
fn pct_exposes_standard_corpus_and_fixes_stay_clean() {
    let cases = standard_fixable();
    // Keep runtime bounded: sweep at most 3 cases per category.
    let mut per_cat: std::collections::HashMap<RaceCategory, u32> =
        std::collections::HashMap::new();
    for case in &cases {
        let n = per_cat.entry(case.category).or_insert(0);
        if *n >= 3 {
            continue;
        }
        *n += 1;
        assert_pct_exposes(case);
        assert_fix_clean(case);
    }
    assert_eq!(
        per_cat.len(),
        RaceCategory::all().len(),
        "all categories swept"
    );
}
