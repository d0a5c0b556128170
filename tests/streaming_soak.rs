//! Streaming soak: a long-lived churn workload must run in bounded
//! shadow memory and bounded vector-clock width when shadow-state GC
//! is on, while the identical schedule with GC off grows without
//! bound — and the two runs must agree on every logical observable.
//!
//! The workload is [`corpus::churn_soak_case`]: generations of
//! short-lived worker goroutines over fresh per-generation buffers,
//! synchronised by one hoisted mutex + wait group so exited workers'
//! clock slots become reusable before the next generation spawns.
//!
//! Scale with `DRFIX_SOAK_GENS` (default 900 ≈ 1M VM steps; CI smoke
//! uses a smaller value). All bounds below are scale-aware except the
//! absolute byte ceiling, which only applies at full scale.

use govm::{compile_sources, run_test_many, CompileOptions, TestConfig, TestOutcome, VmOptions};

/// Workers per generation — each gets its own goroutine and clock slot.
const WORKERS: usize = 3;
/// Disjoint buffer cells doubled by each worker per generation.
const SEGMENT: usize = 8;
/// Default generation count; ≈1.06M steps at 3 workers × 8 cells.
const DEFAULT_GENS: usize = 900;
/// GC-on clock width must stay O(live goroutines), not O(spawned).
const WIDTH_BOUND: u64 = 8;
/// GC-on peak shadow footprint at full scale. The GC-off run blows
/// through this (≈19.6 MB at 900 generations).
const FULL_SCALE_BYTE_BOUND: u64 = 8 * 1024 * 1024;
/// Step count above which the full-scale byte bounds are enforced.
const FULL_SCALE_STEPS: u64 = 1_000_000;

fn run_soak(shadow_gc: bool, gens: usize) -> TestOutcome {
    let case = corpus::churn_soak_case(gens, WORKERS, SEGMENT);
    let prog = compile_sources(&case.files, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("soak case failed to compile: {e}"));
    let cfg = TestConfig {
        runs: 1,
        seed: 1,
        vm: VmOptions {
            shadow_gc,
            ..Default::default()
        },
        ..Default::default()
    };
    run_test_many(&prog, &case.test, &cfg)
}

#[test]
fn churn_soak_is_bounded_with_gc_and_unbounded_without() {
    let gens = bench::knob("DRFIX_SOAK_GENS").unwrap_or(DEFAULT_GENS);
    assert!(gens >= 16, "need at least one collection cycle (16 exits)");
    let on = run_soak(true, gens);
    let off = run_soak(false, gens);

    // The workload itself is race-free and self-checking.
    for o in [&on, &off] {
        assert!(o.races.is_empty(), "soak workload raced: {:?}", o.races);
        assert!(
            o.test_failures.is_empty(),
            "soak failed: {:?}",
            o.test_failures
        );
        assert!(o.error.is_none(), "soak errored: {:?}", o.error);
    }

    // Transparency: GC is physical, so every logical observable of the
    // two runs is bit-identical.
    assert_eq!(on.steps, off.steps, "GC changed the executed schedule");
    assert_eq!(
        on.distinct_schedules, off.distinct_schedules,
        "GC changed schedule signatures"
    );

    // GC-on: width tracks *live* goroutines (main + workers + slack),
    // and the sweep actually ran.
    let c_on = &on.counters;
    assert!(
        c_on.peak_clock_width <= WIDTH_BOUND,
        "GC-on clock width {} exceeds bound {WIDTH_BOUND}",
        c_on.peak_clock_width
    );
    assert!(c_on.states_collected > 0, "no shadow states were collected");
    let min_reclaimed = (gens.saturating_sub(2) * WORKERS) as u64;
    assert!(
        c_on.clock_slots_reclaimed >= min_reclaimed,
        "only {} clock slots reclaimed, expected >= {min_reclaimed}",
        c_on.clock_slots_reclaimed
    );

    // GC-off: width is O(goroutines ever spawned) and shadow memory
    // strictly exceeds the collected run's peak.
    let c_off = &off.counters;
    assert!(
        c_off.peak_clock_width >= (gens * WORKERS) as u64,
        "GC-off width {} unexpectedly small",
        c_off.peak_clock_width
    );
    assert_eq!(c_off.clock_slots_reclaimed, 0);
    assert_eq!(c_off.states_collected, 0);
    assert!(
        c_off.peak_shadow_bytes > c_on.peak_shadow_bytes,
        "GC-off peak {} not above GC-on peak {}",
        c_off.peak_shadow_bytes,
        c_on.peak_shadow_bytes
    );

    // Full-scale absolute bounds (the ISSUE's ≥1M-step soak).
    if on.steps >= FULL_SCALE_STEPS {
        assert!(
            c_on.peak_shadow_bytes <= FULL_SCALE_BYTE_BOUND,
            "GC-on peak {} exceeds {FULL_SCALE_BYTE_BOUND}",
            c_on.peak_shadow_bytes
        );
        assert!(
            c_off.peak_shadow_bytes > FULL_SCALE_BYTE_BOUND,
            "GC-off peak {} did not exceed the bound — workload too small?",
            c_off.peak_shadow_bytes
        );
    }
}
