//! The perf counters' determinism contract.
//!
//! The goldens can pin the hot-path counters only because they are
//! exact functions of the seeded schedules. This suite pins the two ways that
//! could silently break:
//!
//! - **Thread invariance**: summing campaign counters over the fleet
//!   must be bit-identical at 1, 2 and 8 worker threads — the counters
//!   live inside each campaign's VMs, so sharding must not touch them.
//! - **Replay invariance**: re-running a campaign with the same seed
//!   under each [`SchedulePolicy`] must reproduce the counters bit for
//!   bit (wall-clock may differ; nothing else may).

use corpus::CorpusConfig;
use drfix::fleet;
use govm::{
    compile_sources, run_test_many, CompileOptions, Program, RunCounters, SchedulePolicy,
    TestConfig,
};

const CASES: usize = 7;
const RUNS: u32 = 8;
const SEED: u64 = 0xBEEF;

fn compiled_corpus() -> Vec<(Program, String)> {
    corpus::generate_exposure_corpus(&CorpusConfig {
        eval_cases: CASES,
        db_pairs: 0,
        seed: 0xD0F1,
    })
    .iter()
    .map(|case| {
        let prog = compile_sources(&case.files, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        (prog, case.test.clone())
    })
    .collect()
}

fn policies() -> Vec<SchedulePolicy> {
    vec![SchedulePolicy::Random, SchedulePolicy::pct()]
}

/// Campaign counters for every `(case, policy)` job, computed across a
/// fleet of `threads` workers.
fn fleet_counters(programs: &[(Program, String)], threads: usize) -> Vec<RunCounters> {
    let policies = policies();
    let jobs: Vec<(usize, usize)> = (0..programs.len())
        .flat_map(|c| (0..policies.len()).map(move |p| (c, p)))
        .collect();
    fleet::run_indexed(threads, jobs.len(), |i| {
        let (c, p) = jobs[i];
        let (prog, test) = &programs[c];
        let cfg = TestConfig {
            runs: RUNS,
            seed: SEED,
            stop_on_race: false,
            policy: policies[p].clone(),
            ..TestConfig::default()
        };
        run_test_many(prog, test, &cfg).counters
    })
}

#[test]
fn counters_are_bit_identical_across_thread_counts() {
    let programs = compiled_corpus();
    let serial = fleet_counters(&programs, 1);
    assert!(serial.iter().any(|c| c.det.events > 0), "workload is empty");
    for threads in [2, 8] {
        let par = fleet_counters(&programs, threads);
        assert_eq!(
            serial, par,
            "per-campaign counters drifted at {threads} threads"
        );
    }
}

#[test]
fn counters_replay_bit_identically_per_policy() {
    let programs = compiled_corpus();
    for policy in policies() {
        for (prog, test) in &programs {
            let cfg = TestConfig {
                runs: RUNS,
                seed: SEED,
                stop_on_race: false,
                policy: policy.clone(),
                ..TestConfig::default()
            };
            let a = run_test_many(prog, test, &cfg);
            let b = run_test_many(prog, test, &cfg);
            assert_eq!(
                a.counters,
                b.counters,
                "{} under {} did not replay",
                test,
                policy.label()
            );
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.distinct_schedules, b.distinct_schedules);
        }
    }
}

#[test]
fn counters_track_real_work() {
    // Sanity-pin the counter semantics on one campaign: fast hits and
    // slow-path snapshots partition the detector events, and the
    // campaign totals match the per-field sums the perf scan relies on.
    let programs = compiled_corpus();
    let (prog, test) = &programs[0];
    let cfg = TestConfig {
        runs: RUNS,
        seed: SEED,
        stop_on_race: false,
        ..TestConfig::default()
    };
    let out = run_test_many(prog, test, &cfg);
    let c = out.counters;
    assert_eq!(c.vm_steps, out.steps, "vm_steps mirrors the step total");
    assert_eq!(
        c.snapshots_avoided,
        c.det.read_fast_hits + c.det.write_fast_hits,
        "every fast hit avoids exactly one snapshot"
    );
    assert!(
        c.det.events >= c.det.read_fast_hits + c.det.write_fast_hits,
        "hits cannot exceed events: {c:?}"
    );
    // Slow-path events each materialise one snapshot; goroutine
    // creation stacks add a few more.
    let slow_events = c.det.events - c.det.read_fast_hits - c.det.write_fast_hits;
    assert!(
        c.stack_snapshots >= slow_events,
        "every slow event needs a stack identity: {c:?}"
    );
    // `stack_snapshots` is a logical count; the caches can only absorb
    // a subset of it (the rest were physical rebuilds).
    let absorbed = c.stack_cache_hits + c.det.read_sync_hits + c.det.write_sync_hits;
    assert!(
        absorbed <= c.stack_snapshots,
        "caches cannot absorb more identities than were required: {c:?}"
    );
    assert!(c.det.clock_joins > 0, "channel edges must join clocks");
}
