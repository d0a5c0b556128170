//! Scheduler-refactor contract tests.
//!
//! Three families:
//!
//! 1. **Pre-refactor goldens** — per-seed `run_test` results captured
//!    from the VM *before* the `govm::sched` refactor. The random
//!    policy with the same seeds must stay bit-identical to them
//!    forever.
//! 2. **Determinism properties** — the same `(policy, seed)` always
//!    yields the identical race set, step count and schedule signature.
//! 3. **Seed-stream / dedup / early-exit semantics** — the splitmix
//!    regression fix and the schedule-saturation exits.

use govm::sched::SIGNATURE_SEED;
use govm::{
    compile_sources, run_test, run_test_many, run_test_with, CompileOptions, Program,
    SchedulePolicy, StopReason, TestConfig, VmOptions,
};
use proptest::prelude::*;

const RACY: &str = r#"package app

import (
	"sync"
	"testing"
)

func Work() int {
	n := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		n = n + 1
	}()
	go func() {
		defer wg.Done()
		n = n + 2
	}()
	wg.Wait()
	return n
}

func TestWork(t *testing.T) {
	Work()
}
"#;

const CHANNELS: &str = r#"package app

import (
	"testing"
	"time"
)

func Pipe() int {
	ch := make(chan int, 1)
	done := make(chan bool)
	total := 0
	go func() {
		for i := 0; i < 4; i++ {
			ch <- i
		}
		close(ch)
	}()
	go func() {
		for {
			select {
			case v, ok := <-ch:
				if !ok {
					done <- true
					return
				}
				total = total + v
			case <-time.After(50 * time.Millisecond):
				done <- true
				return
			}
		}
	}()
	<-done
	return total
}

func TestPipe(t *testing.T) {
	if Pipe() < 0 {
		t.Errorf("bad")
	}
}
"#;

const CLEAN: &str = r#"package app

import (
	"sync"
	"testing"
)

func Guarded() int {
	n := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(3)
	for i := 0; i < 3; i++ {
		go func() {
			defer wg.Done()
			mu.Lock()
			n = n + 1
			mu.Unlock()
		}()
	}
	wg.Wait()
	return n
}

func TestGuarded(t *testing.T) {
	if Guarded() != 3 {
		t.Errorf("lost update")
	}
}
"#;

fn compile(src: &str) -> Program {
    compile_sources(&[("a.go".into(), src.into())], &CompileOptions::default()).unwrap()
}

// ------------------------------------------------- pre-refactor goldens

/// `(seed, races, steps)` triples captured from the scheduler BEFORE the
/// `govm::sched` refactor (uniform-random pick + quantum from the shared
/// VM rng). The random policy must reproduce them exactly.
#[test]
fn random_policy_matches_prerefactor_run_goldens() {
    let racy_gold: &[(u64, usize, u64)] = &[
        (0, 1, 45),
        (1, 1, 45),
        (2, 1, 45),
        (3, 1, 44),
        (4, 1, 45),
        (5, 1, 45),
        (6, 1, 45),
        (7, 1, 45),
    ];
    let chans_gold: &[(u64, usize, u64)] = &[
        (0, 0, 173),
        (1, 0, 55),
        (2, 0, 174),
        (3, 0, 173),
        (4, 0, 173),
        (5, 0, 173),
        (6, 0, 173),
        (7, 0, 173),
    ];
    let clean_gold: &[(u64, usize, u64)] = &[
        (0, 0, 118),
        (1, 0, 119),
        (2, 0, 118),
        (3, 0, 118),
        (4, 0, 118),
        (5, 0, 118),
        (6, 0, 120),
        (7, 0, 118),
    ];
    for (src, test, gold) in [
        (RACY, "TestWork", racy_gold),
        (CHANNELS, "TestPipe", chans_gold),
        (CLEAN, "TestGuarded", clean_gold),
    ] {
        let prog = compile(src);
        for &(seed, races, steps) in gold {
            let r = run_test(&prog, test, seed);
            assert_eq!(r.races.len(), races, "{test} seed {seed}: race count");
            assert_eq!(r.steps, steps, "{test} seed {seed}: steps");
            assert!(r.error.is_none(), "{test} seed {seed}: {:?}", r.error);
        }
    }
    // The racy program's bug hash, pre-refactor.
    let prog = compile(RACY);
    let r = run_test(&prog, "TestWork", 0);
    assert_eq!(r.races[0].bug_hash(), "fe4cadd038a72ce8");
}

// ----------------------------------------------- determinism properties

fn policies() -> Vec<SchedulePolicy> {
    vec![
        SchedulePolicy::Random,
        SchedulePolicy::pct(),
        SchedulePolicy::Pct {
            depth: 8,
            budget: 256,
        },
        SchedulePolicy::Sweep,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The same `(policy, seed)` pair always produces the identical
    // race set, step count, output and schedule signature.
    #[test]
    fn same_policy_and_seed_is_deterministic(seed in 0u64..5000, pidx in 0usize..4) {
        let policy = policies()[pidx].clone();
        let prog = compile(RACY);
        let opts = VmOptions { seed, policy, ..VmOptions::default() };
        let a = run_test_with(&prog, "TestWork", opts.clone());
        let b = run_test_with(&prog, "TestWork", opts);
        let hashes = |r: &govm::RunResult| {
            let mut h: Vec<String> = r.races.iter().map(|x| x.bug_hash()).collect();
            h.sort();
            h
        };
        prop_assert_eq!(hashes(&a), hashes(&b));
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.schedule_sig, b.schedule_sig);
        prop_assert_eq!(a.sched_points, b.sched_points);
        prop_assert_eq!(a.output, b.output);
    }

    // The random policy run through `run_test_with` equals `run_test`
    // (the pre-refactor entry point) for every seed.
    #[test]
    fn run_test_is_random_policy(seed in 0u64..5000) {
        let prog = compile(CHANNELS);
        let a = run_test(&prog, "TestPipe", seed);
        let b = run_test_with(
            &prog,
            "TestPipe",
            VmOptions { seed, policy: SchedulePolicy::Random, ..VmOptions::default() },
        );
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.schedule_sig, b.schedule_sig);
        prop_assert_eq!(a.races.len(), b.races.len());
    }
}

/// One signature ↔ one interleaving: equal signatures imply equal step
/// counts; the signature never stays at its seed value once the program
/// schedules anything.
#[test]
fn schedule_signature_identifies_interleavings() {
    let prog = compile(RACY);
    let mut by_sig: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut distinct = std::collections::HashSet::new();
    for seed in 0..64u64 {
        let r = run_test(&prog, "TestWork", seed);
        assert_ne!(
            r.schedule_sig, SIGNATURE_SEED,
            "signature must fold decisions"
        );
        assert!(r.sched_points > 0);
        if let Some(prev) = by_sig.insert(r.schedule_sig, r.steps) {
            assert_eq!(prev, r.steps, "same signature, different step count");
        }
        distinct.insert(r.schedule_sig);
    }
    assert!(distinct.len() > 1, "64 seeds must explore >1 interleaving");
}

/// Bug hashes are stable across schedule permutations: every seed and
/// every policy that exposes the planted race reports the same hash.
#[test]
fn bug_hash_is_stable_across_schedules_and_policies() {
    let prog = compile(RACY);
    let mut hashes = std::collections::HashSet::new();
    for policy in policies() {
        for seed in 0..24u64 {
            let r = run_test_with(
                &prog,
                "TestWork",
                VmOptions {
                    seed,
                    policy: policy.clone(),
                    ..VmOptions::default()
                },
            );
            for race in &r.races {
                hashes.insert(race.bug_hash());
            }
        }
    }
    assert_eq!(
        hashes.len(),
        1,
        "one planted race must yield one stable hash: {hashes:?}"
    );
}

// --------------------------------------- seed streams, dedup, early exit

/// Regression for the correlated-seed-stream bug: under the old
/// `seed + i` derivation, campaigns with nearby base seeds re-explored
/// all but one of each other's schedules; the splitmix stream shares
/// none.
#[test]
fn nearby_base_seeds_no_longer_share_schedules() {
    let runs = 16u64;
    let split_a: Vec<u64> = (0..runs).map(|i| govm::derive_seed(100, i)).collect();
    let split_b: Vec<u64> = (0..runs).map(|i| govm::derive_seed(101, i)).collect();
    assert!(
        split_a.iter().all(|s| !split_b.contains(s)),
        "split streams must be disjoint"
    );
}

/// A single-goroutine program has exactly one interleaving: dedup
/// detects the saturation and the streak exit stops the campaign.
#[test]
fn dedup_streak_stops_saturated_campaigns() {
    let src = r#"package app

import "testing"

func Sum() int {
	total := 0
	for i := 0; i < 10; i++ {
		total = total + i
	}
	return total
}

func TestSum(t *testing.T) {
	if Sum() != 45 {
		t.Errorf("bad")
	}
}
"#;
    let prog = compile(src);
    let unbounded = run_test_many(
        &prog,
        "TestSum",
        &TestConfig {
            runs: 50,
            ..TestConfig::default()
        },
    );
    assert_eq!(unbounded.runs, 50);
    assert_eq!(unbounded.distinct_schedules, 1);
    assert_eq!(unbounded.duplicate_schedules, 49);

    let bounded = run_test_many(
        &prog,
        "TestSum",
        &TestConfig {
            runs: 50,
            dedup_streak: Some(3),
            ..TestConfig::default()
        },
    );
    assert_eq!(bounded.runs, 4, "1 fresh + 3 duplicate runs, then exit");
    assert!(bounded.is_clean());
    assert!(
        bounded.steps < unbounded.steps / 5,
        "dedup exit must save instructions: {} vs {}",
        bounded.steps,
        unbounded.steps
    );
    // The exit reasons are distinguishable.
    assert_eq!(unbounded.stop, StopReason::Completed);
    assert_eq!(bounded.stop, StopReason::DedupSaturated);
}

/// Golden pinning of the two early-exit reasons (satellite of the
/// lock-aware-cache PR): the same multi-schedule program stopped by
/// schedule saturation vs by the instruction budget must report
/// different [`StopReason`]s with exactly reproducible run/step
/// bookkeeping.
#[test]
fn early_exit_reasons_are_distinguishable_goldens() {
    // Multi-goroutine: many distinct schedules, so only an explicit
    // limit stops it early.
    let src = r#"package app

import (
	"sync"
	"testing"
)

func Spin() int {
	n := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				mu.Lock()
				n = n + 1
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return n
}

func TestSpin(t *testing.T) {
	if Spin() != 12 {
		t.Errorf("lost updates")
	}
}
"#;
    let prog = compile(src);

    // Budget exit: the campaign must stop as soon as the summed steps
    // cross the budget, after at least one run.
    let budget = run_test_many(
        &prog,
        "TestSpin",
        &TestConfig {
            runs: 64,
            seed: 7,
            max_total_steps: Some(1),
            ..TestConfig::default()
        },
    );
    assert_eq!(budget.stop, StopReason::BudgetExhausted);
    assert_eq!(budget.runs, 1, "a 1-step budget still runs one schedule");
    assert!(budget.steps > 0);
    assert!(budget.is_clean());

    // With no limits at all, the same program completes every run —
    // pinning that `Completed` is reserved for full campaigns.
    let complete = run_test_many(
        &prog,
        "TestSpin",
        &TestConfig {
            runs: 8,
            seed: 7,
            ..TestConfig::default()
        },
    );
    assert_eq!(complete.stop, StopReason::Completed);
    assert_eq!(complete.runs, 8);

    // And the race-exposure exit stays distinguishable from both.
    let racy = compile(RACY);
    let exposed = run_test_many(
        &racy,
        "TestWork",
        &TestConfig {
            runs: 64,
            seed: 0,
            stop_on_race: true,
            ..TestConfig::default()
        },
    );
    assert_eq!(exposed.stop, StopReason::RaceExposed);
    assert!(!exposed.races.is_empty());
    assert!(exposed.runs < 64);

    // Exit reasons, like every other campaign observable, replay
    // bit-identically.
    let budget2 = run_test_many(
        &prog,
        "TestSpin",
        &TestConfig {
            runs: 64,
            seed: 7,
            max_total_steps: Some(1),
            ..TestConfig::default()
        },
    );
    assert_eq!(budget.runs, budget2.runs);
    assert_eq!(budget.steps, budget2.steps);
    assert_eq!(budget.stop, budget2.stop);
}

/// The saturation streak resets on *any* novel signature: duplicates
/// separated by fresh schedules never accumulate into an exit.
#[test]
fn dedup_streak_resets_on_novel_signatures() {
    // Two goroutines: a handful of distinct schedules that the random
    // policy revisits with duplicates interleaved between novelties.
    let src = r#"package app

import (
	"sync"
	"testing"
)

func Pair() int {
	n := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			n = n + 1
			mu.Unlock()
		}()
	}
	wg.Wait()
	return n
}

func TestPair(t *testing.T) {
	if Pair() != 2 {
		t.Errorf("lost updates")
	}
}
"#;
    let prog = compile(src);
    let unbounded = run_test_many(
        &prog,
        "TestPair",
        &TestConfig {
            runs: 48,
            seed: 3,
            ..TestConfig::default()
        },
    );
    // Replay the same campaign with a streak limit. Reconstruct, run by
    // run, what the streak-with-reset semantics must do, and check the
    // campaign agrees exactly.
    let k = 4u32;
    let bounded = run_test_many(
        &prog,
        "TestPair",
        &TestConfig {
            runs: 48,
            seed: 3,
            dedup_streak: Some(k),
            ..TestConfig::default()
        },
    );
    // Derive the expected exit point from the unbounded campaign's
    // per-run signatures (recomputed via single runs on the same seed
    // stream).
    let mut seen = std::collections::HashSet::new();
    let mut streak = 0u32;
    let mut expected_runs = 0u32;
    let mut saturated = false;
    for i in 0..48u64 {
        let seed = govm::derive_seed(3, i);
        let r = run_test_with(
            &prog,
            "TestPair",
            VmOptions {
                seed,
                ..VmOptions::default()
            },
        );
        expected_runs += 1;
        if seen.insert(r.schedule_sig) {
            streak = 0; // novel schedule: the streak resets
        } else {
            streak += 1;
        }
        if streak >= k {
            saturated = true;
            break;
        }
    }
    assert_eq!(bounded.runs, expected_runs, "streak must reset on novelty");
    if saturated {
        assert_eq!(bounded.stop, StopReason::DedupSaturated);
        assert!(
            bounded.distinct_schedules > 1,
            "novel schedules appeared before saturation: {bounded:?}"
        );
    } else {
        assert_eq!(bounded.stop, StopReason::Completed);
    }
    // Sanity: the unbounded campaign saw duplicates *and* novelties, so
    // the reset semantics were actually exercised.
    assert!(unbounded.duplicate_schedules > 0);
    assert!(unbounded.distinct_schedules > 1);
}

/// The campaign-wide instruction budget stops a campaign mid-flight.
#[test]
fn step_budget_bounds_campaign_cost() {
    let prog = compile(CLEAN);
    let full = run_test_many(
        &prog,
        "TestGuarded",
        &TestConfig {
            runs: 32,
            ..TestConfig::default()
        },
    );
    assert_eq!(full.runs, 32);
    let per_run = full.steps / full.runs as u64;
    let budget = per_run * 5;
    let capped = run_test_many(
        &prog,
        "TestGuarded",
        &TestConfig {
            runs: 32,
            max_total_steps: Some(budget),
            ..TestConfig::default()
        },
    );
    assert!(capped.runs < full.runs, "budget must stop early");
    // The budget check runs between schedules, so the overshoot is at
    // most one run.
    assert!(
        capped.steps <= budget + 2 * per_run,
        "{} vs {budget}",
        capped.steps
    );
}

/// PCT and sweep explore at least as many distinct interleavings as the
/// uniform policy on the same budget (they are built to diversify).
#[test]
fn exploration_policies_produce_distinct_schedules() {
    let prog = compile(CHANNELS);
    for policy in policies() {
        let out = run_test_many(
            &prog,
            "TestPipe",
            &TestConfig {
                runs: 16,
                policy: policy.clone(),
                ..TestConfig::default()
            },
        );
        assert!(
            out.distinct_schedules >= 2,
            "{}: 16 runs explored {} schedules",
            policy.label(),
            out.distinct_schedules
        );
    }
}
