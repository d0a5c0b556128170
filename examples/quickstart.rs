//! Quickstart: detect a data race, let Dr.Fix repair it, and diff the
//! patch — the end-to-end flow of Fig. 1 in one file.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use drfix::{DrFix, PipelineConfig, ValidationOptions};
use govm::{compile_sources, CompileOptions, TestConfig};

const RACY: &str = r#"package app

import (
	"sync"
	"testing"
)

func RefreshQuota() error {
	err := loadQuota()
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err = syncRemote(); err != nil {
			note()
		}
	}()
	if err = flushLocal(); err != nil {
		note()
	}
	wg.Wait()
	return err
}

func loadQuota() error  { return nil }
func syncRemote() error { return nil }
func flushLocal() error { return nil }
func note()             {}

func TestRefreshQuota(t *testing.T) {
	if err := RefreshQuota(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}
"#;

fn main() {
    let files = vec![("quota.go".to_string(), RACY.to_string())];

    // 1. Detect: run the test under seeded schedules with the FastTrack
    //    detector (the `go test -race -count=N` substitute).
    let prog = compile_sources(&files, &CompileOptions::default()).expect("compiles");
    let detection = govm::run_test_many(
        &prog,
        "TestRefreshQuota",
        &TestConfig {
            runs: 32,
            stop_on_race: true,
            ..TestConfig::default()
        },
    );
    let report = detection.races.first().expect("the race reproduces");
    println!("--- race report -------------------------------------------");
    print!("{}", report.render());
    println!("stable bug hash: {}", report.bug_hash());

    // 2. Fix: the full pipeline — race info extraction, skeleton RAG,
    //    synthetic LLM, validation loop.
    let drfix = DrFix::new(PipelineConfig::default(), None);
    let outcome = drfix.fix_case(&files, "TestRefreshQuota");
    assert!(outcome.fixed, "Dr.Fix should fix the Listing-1 pattern");
    println!("\n--- fix ----------------------------------------------------");
    println!(
        "strategy: {:?}   location: {:?}   scope: {:?}",
        outcome.strategy.expect("strategy recorded"),
        outcome.location.expect("location recorded"),
        outcome.scope.expect("scope recorded"),
    );

    // 3. Show the patched file.
    let patch = outcome.patch.expect("patched codebase");
    println!("\n--- patched quota.go --------------------------------------");
    println!("{}", patch[0].1);

    // 4. Confirm the patch is clean under fresh schedules.
    let cfg = TestConfig {
        runs: 32,
        seed: 99,
        stop_on_race: false,
        ..TestConfig::default()
    };
    let verdict = drfix::validate_patch_report(
        &patch,
        "TestRefreshQuota",
        &report.bug_hash(),
        &cfg,
        &ValidationOptions::default(),
    )
    .verdict;
    println!("re-validation: {verdict:?}");
    assert!(verdict.is_ok());
}
