//! A schedule campaign runs every schedule on one VM, reset between
//! runs ([`govm::TestVm`]), and replays a run whose context-switch
//! sequence it already executed from its schedule memo. This suite pins
//! that both are invisible: every run equals the same run on a freshly
//! built VM — full race reports with creation stacks, steps, schedule
//! signature, counters, error, test failures and output — and
//! `run_test_many`'s campaign outcome equals the one assembled from
//! fresh single runs, including on 1,000-run campaigns where the memo
//! replays a large share of the runs.

use corpus::stream::{CorpusStream, StreamConfig, StreamFamily};
use govm::{
    compile_sources, run_test_many, run_test_with, CompileOptions, Program, RunCounters, RunError,
    SchedulePolicy, StopReason, TestConfig, TestOutcome, TestVm, VmOptions,
};
use std::collections::HashSet;

fn compile(files: &[(String, String)]) -> Option<Program> {
    compile_sources(files, &CompileOptions::default()).ok()
}

/// Programs from the three concrete stream families (racy original and
/// reference fix), every lint-corpus fixture that builds, and the
/// adversarial program below, each with its tests.
fn programs() -> Vec<(String, Program, Vec<String>)> {
    let adversarial = [("adv.go".to_owned(), ADVERSARIAL.to_owned())];
    let prog = compile(&adversarial).expect("adversarial program compiles");
    let mut out = vec![("adversarial".to_owned(), prog.clone(), prog.test_funcs())];
    for family in [
        StreamFamily::Fixable,
        StreamFamily::Exposure,
        StreamFamily::Tournament,
    ] {
        let stream = CorpusStream::new(StreamConfig {
            family,
            seed: 0xD27F17,
        });
        for case in stream.iter(0..3) {
            let mut variants = vec![("racy", case.files.clone())];
            if let Some(fix) = &case.human_fix {
                let mut fixed = case.files.clone();
                for (name, src) in fix {
                    if let Some(slot) = fixed.iter_mut().find(|(n, _)| n == name) {
                        slot.1 = src.clone();
                    }
                }
                variants.push(("fixed", fixed));
            }
            for (kind, files) in variants {
                if let Some(prog) = compile(&files) {
                    out.push((
                        format!("{} {} {kind}", family.name(), case.id),
                        prog,
                        vec![case.test.clone()],
                    ));
                }
            }
        }
    }
    for shape in corpus::lint_shapes() {
        if let Some(prog) = compile(&[(shape.file.to_owned(), shape.source.to_owned())]) {
            let tests = prog.test_funcs();
            if !tests.is_empty() {
                out.push((format!("lint {}", shape.id), prog, tests));
            }
        }
    }
    out
}

/// Campaign shapes cycled over the inputs: every policy, detection and
/// validation mode, and each early exit.
fn configs() -> Vec<TestConfig> {
    let vm = VmOptions {
        max_steps: 20_000,
        ..VmOptions::default()
    };
    let base = TestConfig {
        runs: 8,
        seed: 0x5EED,
        vm,
        ..TestConfig::default()
    };
    vec![
        base.clone(),
        TestConfig {
            policy: SchedulePolicy::pct(),
            dedup_streak: Some(3),
            ..base.clone()
        },
        TestConfig {
            stop_on_race: true,
            ..base.clone()
        },
        TestConfig {
            max_total_steps: Some(400),
            ..base
        },
    ]
}

fn run_opts(cfg: &TestConfig, i: u32) -> VmOptions {
    VmOptions {
        seed: govm::derive_seed(cfg.seed, u64::from(i)),
        policy: cfg.policy.clone(),
        ..cfg.vm.clone()
    }
}

/// The campaign `run_test_many` must report, assembled from one fresh
/// VM per run.
fn fresh_campaign(prog: &Program, test: &str, cfg: &TestConfig) -> TestOutcome {
    let mut out = TestOutcome {
        races: Vec::new(),
        error: None,
        test_failures: Vec::new(),
        runs: 0,
        steps: 0,
        distinct_schedules: 0,
        duplicate_schedules: 0,
        stop: StopReason::Completed,
        counters: RunCounters::default(),
        replayed: 0,
    };
    let (mut seen, mut sigs, mut streak) = (HashSet::new(), HashSet::new(), 0);
    for i in 0..cfg.runs {
        if cfg
            .max_total_steps
            .is_some_and(|b| out.runs > 0 && out.steps >= b)
        {
            out.stop = StopReason::BudgetExhausted;
            break;
        }
        let r = run_test_with(prog, test, run_opts(cfg, i));
        out.runs += 1;
        out.steps += r.steps;
        out.counters.accumulate(&r.counters);
        if sigs.insert(r.schedule_sig) {
            out.distinct_schedules += 1;
            streak = 0;
        } else {
            out.duplicate_schedules += 1;
            streak += 1;
        }
        for race in r.races {
            if seen.insert(race.bug_hash()) {
                out.races.push(race);
            }
        }
        for f in r.test_failures {
            if !out.test_failures.contains(&f) {
                out.test_failures.push(f);
            }
        }
        if out.error.is_none() {
            out.error = r.error;
        }
        if cfg.stop_on_race && !out.races.is_empty() {
            out.stop = StopReason::RaceExposed;
            break;
        }
        if cfg.dedup_streak.is_some_and(|k| k > 0 && streak >= k) {
            out.stop = StopReason::DedupSaturated;
            break;
        }
    }
    out
}

#[test]
fn campaigns_on_a_reset_vm_equal_fresh_single_runs() {
    let programs = programs();
    assert!(programs.len() >= 12, "too few inputs: {}", programs.len());
    let (mut runs, mut raced, mut failed) = (0, 0, 0);
    let configs = configs();
    for (label, prog, tests) in &programs {
        // One reused VM per program, shared by its tests and every
        // campaign shape, so each run starts from another run's
        // leftovers.
        let mut tvm = TestVm::new(prog);
        for (c, cfg) in configs.iter().enumerate() {
            for test in tests {
                let ctx = format!("{label} {test} config {c}");
                for i in 0..cfg.runs {
                    let opts = run_opts(cfg, i);
                    let fresh = run_test_with(prog, test, opts.clone());
                    assert_eq!(tvm.run(test, opts), fresh, "{ctx} run {i}");
                    runs += 1;
                    raced += usize::from(!fresh.races.is_empty());
                    failed += usize::from(fresh.error.is_some());
                }
                assert_eq!(
                    run_test_many(prog, test, cfg),
                    fresh_campaign(prog, test, cfg),
                    "{ctx} campaign"
                );
            }
        }
    }
    assert!(
        raced > 0 && failed > 0 && raced < runs,
        "inputs must mix racy, abnormal and clean runs: {raced} raced, {failed} failed of {runs}"
    );
}

const ADVERSARIAL: &str = r#"package adv

import (
	"sync"
	"testing"
)

var shared int

func TestSpin(t *testing.T) {
	var mu sync.Mutex
	mu.Lock()
	go func() {
		for {
			shared = shared + 1
		}
	}()
	for {
		shared = shared + 2
	}
}

func TestDeadlock(t *testing.T) {
	ch := make(chan int)
	go func() {
		shared = 2
	}()
	<-ch
}

func TestNativeFatal(t *testing.T) {
	var mu sync.Mutex
	go func() {
		shared = 3
	}()
	mu.Unlock()
}

func TestRacy(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		shared = shared + 1
	}()
	go func() {
		defer wg.Done()
		shared = shared + 1
	}()
	wg.Wait()
}

func TestClean(t *testing.T) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			shared = shared + 1
			mu.Unlock()
		}()
	}
	wg.Wait()
	if shared != 3 {
		t.Errorf("lost updates: %d", shared)
	}
}
"#;

#[test]
fn runs_after_step_limit_deadlock_and_fatal_errors_match_a_fresh_vm() {
    let prog = compile(&[("adv.go".to_owned(), ADVERSARIAL.to_owned())]).expect("compiles");
    let order = [
        "TestSpin",
        "TestClean",
        "TestDeadlock",
        "TestClean",
        "TestNativeFatal",
        "TestClean",
        "TestRacy",
        "TestSpin",
        "TestRacy",
    ];
    let mut tvm = TestVm::new(&prog);
    for (i, test) in order.iter().enumerate() {
        let opts = VmOptions {
            seed: 0xC0FFEE + i as u64,
            max_steps: 5_000,
            drain_steps: 1_000,
            ..VmOptions::default()
        };
        let fresh = run_test_with(&prog, test, opts.clone());
        let ok = match *test {
            "TestSpin" => fresh.error == Some(RunError::StepLimit),
            "TestDeadlock" => matches!(fresh.error, Some(RunError::Deadlock(_))),
            "TestNativeFatal" => matches!(fresh.error, Some(RunError::Panic(_))),
            "TestRacy" => !fresh.races.is_empty(),
            _ => fresh.is_clean(),
        };
        assert!(ok, "{test} did not end as intended: {fresh:?}");
        assert_eq!(tvm.run(test, opts), fresh, "{test} (step {i})");
    }
}

const WIDTHS: &str = r#"package widths

import (
	"sync"
	"testing"
)

func TestWide(t *testing.T) {
	cells := make([]int, 900)
	for wave := 0; wave < 4; wave++ {
		var wg sync.WaitGroup
		for g := 0; g < 12; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < 900; i += 12 {
					cells[i] = cells[i] + wave
				}
			}(g)
		}
		wg.Wait()
	}
}

func TestNarrow(t *testing.T) {
	x := 0
	done := make(chan bool)
	go func() {
		x = 1
		done <- true
	}()
	<-done
	x = 2
}
"#;

#[test]
fn no_gauge_inherits_retained_capacity() {
    let prog = compile(&[("widths.go".to_owned(), WIDTHS.to_owned())]).expect("compiles");
    let opts = |seed| VmOptions {
        seed,
        ..VmOptions::default()
    };
    let mut tvm = TestVm::new(&prog);
    let wide = tvm.run("TestWide", opts(1));
    let narrow = tvm.run("TestNarrow", opts(2));
    let fresh = run_test_with(&prog, "TestNarrow", opts(2));
    let (w, n, f) = (&wide.counters, &narrow.counters, &fresh.counters);
    assert!(wide.is_clean() && narrow.is_clean(), "{wide:?} {narrow:?}");
    assert!(
        w.peak_shadow_bytes > n.peak_shadow_bytes
            && w.peak_clock_width > n.peak_clock_width
            && w.states_collected > 0
            && w.clock_slots_reclaimed > 0,
        "the wide run must be wide: {w:?} vs {n:?}"
    );
    assert_eq!(n.peak_shadow_bytes, f.peak_shadow_bytes);
    assert_eq!(n.peak_clock_width, f.peak_clock_width);
    assert_eq!(n.states_collected, f.states_collected);
    assert_eq!(n.clock_slots_reclaimed, f.clock_slots_reclaimed);
    assert_eq!(narrow, fresh);
}

/// Fixable-family stream cases: each racy original and its reference
/// fix, with the case's test.
fn fixable_programs(cases: usize) -> Vec<(String, Program, String)> {
    let stream = CorpusStream::new(StreamConfig {
        family: StreamFamily::Fixable,
        seed: 0xD27F17,
    });
    let mut out = Vec::new();
    for case in stream.iter(0..cases) {
        let fix = case.human_fix.as_ref().expect("fixable cases carry a fix");
        let mut fixed = case.files.clone();
        for (name, src) in fix {
            if let Some(slot) = fixed.iter_mut().find(|(n, _)| n == name) {
                slot.1 = src.clone();
            }
        }
        for (kind, files) in [("racy", &case.files), ("fixed", &fixed)] {
            let prog = compile(files).expect("fixable case compiles");
            out.push((format!("{} {kind}", case.id), prog, case.test.clone()));
        }
    }
    out
}

/// 1,000-run campaign shapes: every policy, detection and validation
/// mode, and each early exit.
fn memo_configs() -> Vec<TestConfig> {
    let base = TestConfig {
        runs: 1_000,
        seed: 0x3E30,
        ..TestConfig::default()
    };
    vec![
        base.clone(),
        TestConfig {
            policy: SchedulePolicy::pct(),
            ..base.clone()
        },
        TestConfig {
            stop_on_race: true,
            ..base.clone()
        },
        TestConfig {
            policy: SchedulePolicy::pct(),
            stop_on_race: true,
            dedup_streak: Some(40),
            ..base.clone()
        },
        TestConfig {
            policy: SchedulePolicy::pct(),
            max_total_steps: Some(60_000),
            ..base
        },
    ]
}

#[test]
fn memo_replayed_campaigns_equal_fresh_single_runs() {
    let mut pinned = None;
    for (label, prog, test) in fixable_programs(2) {
        let mut replayed = 0;
        for (c, cfg) in memo_configs().iter().enumerate() {
            let memo = run_test_many(&prog, &test, cfg);
            assert_eq!(
                memo,
                fresh_campaign(&prog, &test, cfg),
                "{label} config {c}"
            );
            assert!(
                memo.replayed <= memo.duplicate_schedules,
                "{label} config {c}"
            );
            replayed += memo.replayed;
            if pinned.is_none() && label.ends_with("fixed") {
                pinned = Some((label.clone(), memo.runs, memo.replayed));
            }
        }
        assert!(replayed > 0, "{label}: the memo replayed nothing");
    }
    // The first fixed case's random validation campaign: the replay count
    // is a deterministic function of the program and the seeds.
    let (label, runs, replayed) = pinned.expect("a fixed case ran");
    assert_eq!((runs, replayed), (1_000, PINNED_REPLAYED), "{label}");
}

/// Replays of the first fixed case's 1,000-run random campaign.
const PINNED_REPLAYED: u32 = 906;

/// `select` over several ready channels, `time.After`, a context
/// deadline and `time.Sleep`: each draws from the run rng or arms a
/// timer, which the memo must never replay past.
const TIMERS: &str = r#"package timers

import (
	"context"
	"sync"
	"testing"
	"time"
)

var hits int

func TestSelectTimers(t *testing.T) {
	var mu sync.Mutex
	a := make(chan int, 1)
	b := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a <- 1
	}()
	go func() {
		defer wg.Done()
		b <- 2
		time.Sleep(3)
	}()
	wg.Wait()
	select {
	case v := <-a:
		mu.Lock()
		hits = hits + v
		mu.Unlock()
	case v := <-b:
		hits = hits + v
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20)
	defer cancel()
	select {
	case <-ctx.Done():
		hits = hits + 1
	case <-time.After(10):
		hits = hits + 2
	}
}

func TestWorkersThenSelect(t *testing.T) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			hits = hits + 1
			mu.Unlock()
		}()
	}
	wg.Wait()
	a := make(chan int, 1)
	b := make(chan int, 1)
	a <- 1
	b <- 2
	select {
	case <-a:
		if hits < 0 {
			t.Errorf("negative")
		}
	case <-b:
		go func() {
			hits = 7
		}()
		hits = 8
	}
}
"#;

#[test]
fn memo_never_replays_past_select_or_timer_draws() {
    let prog = compile(&[("timers.go".to_owned(), TIMERS.to_owned())]).expect("compiles");
    for test in prog.test_funcs() {
        for (c, cfg) in memo_configs().iter().enumerate().take(3) {
            let memo = run_test_many(&prog, &test, cfg);
            assert_eq!(memo, fresh_campaign(&prog, &test, cfg), "{test} config {c}");
        }
    }
}

/// One goroutine, two ready buffered channels: the `select` order is
/// drawn from the run rng, which the schedule signature does not see.
const SELECT_DRAW: &str = r#"package draw

import (
	"fmt"
	"testing"
)

func TestPick(t *testing.T) {
	a := make(chan int, 1)
	b := make(chan int, 1)
	a <- 1
	b <- 2
	select {
	case v := <-a:
		fmt.Println(v)
	case v := <-b:
		fmt.Println(v)
	}
}
"#;

/// Schedule signatures fold context switches only, so runs with equal
/// signatures can still differ — here in what they print. Dedup by
/// signature is a heuristic, and the schedule memo cannot key on the
/// signature alone.
#[test]
fn equal_signatures_can_hide_different_runs() {
    let prog = compile(&[("draw.go".to_owned(), SELECT_DRAW.to_owned())]).expect("compiles");
    let cfg = TestConfig {
        runs: 6,
        seed: 0xD1CE,
        dedup_streak: Some(3),
        ..TestConfig::default()
    };
    let runs: Vec<_> = (0..cfg.runs)
        .map(|i| run_test_with(&prog, "TestPick", run_opts(&cfg, i)))
        .collect();
    assert!(runs.iter().all(|r| r.schedule_sig == runs[0].schedule_sig));
    let outputs: HashSet<&str> = runs.iter().map(|r| r.output.as_str()).collect();
    assert_eq!(outputs, HashSet::from(["1\n", "2\n"]), "{runs:?}");
    let out = run_test_many(&prog, "TestPick", &cfg);
    assert_eq!(out.stop, StopReason::DedupSaturated);
    assert_eq!((out.runs, out.distinct_schedules, out.replayed), (4, 1, 0));
}
