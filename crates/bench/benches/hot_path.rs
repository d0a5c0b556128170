//! `hot_path` — interpreter + detector hot-path microbenchmarks.
//!
//! Complements `perfscan` (the deterministic counter scan behind the CI
//! perf gate) with three focused measurements:
//!
//! 1. **Campaign throughput** per exposure-corpus category — the same
//!    workload as `perfscan` at reduced scale, reporting
//!    instructions/sec and the same-epoch fast-path hit rate.
//! 2. **Per-schedule VM cost** — a fresh `Vm` built for every schedule
//!    vs one [`govm::TestVm`] reset between schedules (what campaigns
//!    use). Building and tearing down a VM per run used to cost more
//!    than the short runs themselves.
//! 3. **Detector event cost** — same-epoch repeats (fast path) vs
//!    epoch-advancing accesses (slow path, stack snapshot + full
//!    transfer function), in events/sec.
//!
//! The bench asserts its contract — fast path dominating the spin-heavy
//! categories, the reused VM strictly cheaper per schedule, counters
//! replaying deterministically — so `make perf-smoke`-adjacent CI runs
//! fail loudly instead of silently reporting nonsense.
//!
//! Knobs: `DRFIX_PERF_CASES`, `DRFIX_PERF_RUNS`, `DRFIX_PERF_REPEAT`
//! (shared with `perfscan`).

use bench::hotpath::{self, HotpathScale};
use govm::{compile_sources, run_test_with, CompileOptions, TestVm, VmOptions};
use racedet::{Detector, FastPath, StackGen};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let scale = HotpathScale {
        cases: 14,
        runs: 8,
        repeat: 3,
        heap_cases: 3,
        churn_cases: 2,
        gate_cases: 4,
        tournament_cases: 6,
        campaign_cases: 12,
    };

    bench::header(
        "hot_path — VM + FastTrack hot-path microbenchmarks",
        "HardRace (per-access overhead budgets); FastTrack (PLDI 2009) same-epoch fast path",
    );

    // 1. Campaign throughput at reduced scale.
    let report = hotpath::run_scan(&scale);
    println!("\n{}", hotpath::render_table(&report));
    assert!(
        report.exposure.counters.fast_hit_rate() > 0.4,
        "fast path must dominate the exposure corpus: {:?}",
        report.exposure.counters
    );

    // 2. Per-schedule cost: a fresh VM per run vs one reset VM, on a
    //    short validation-sized run (the first fixable stream case,
    //    about a hundred steps), where per-run setup matters most.
    let case = corpus::stream::CorpusStream::new(corpus::stream::StreamConfig {
        family: corpus::stream::StreamFamily::Fixable,
        seed: 0xD27F17,
    })
    .case(0);
    let test = case.test.as_str();
    let prog =
        compile_sources(&case.files, &CompileOptions::default()).expect("stream case compiles");
    let n = 2000u64;
    let opts = |seed| VmOptions {
        seed,
        ..VmOptions::default()
    };
    let t0 = Instant::now();
    for i in 0..n {
        black_box(run_test_with(&prog, test, opts(i)));
    }
    let fresh_ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;
    let mut tvm = TestVm::new(&prog);
    let t0 = Instant::now();
    for i in 0..n {
        black_box(tvm.run(test, opts(i)));
    }
    let reused_ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;
    println!(
        "schedule ({test}, pool {} names): fresh VM {:.0}ns vs reset VM {:.0}ns ({:.1}x)",
        prog.pool.len(),
        fresh_ns,
        reused_ns,
        fresh_ns / reused_ns.max(1e-9),
    );
    assert!(
        reused_ns < fresh_ns,
        "a reset VM must run a schedule cheaper: {reused_ns:.0}ns vs {fresh_ns:.0}ns"
    );

    // 3. Detector event cost, fast vs slow path.
    let events = 200_000u64;
    let mut det = Detector::new();
    let stack: Vec<u32> = vec![1, 2, 3];
    det.write(0, 1, 0, &stack);
    det.read(0, 1, 0, &stack); // prime the read epoch
    let hits_before = det.stats().read_fast_hits;
    let t0 = Instant::now();
    for _ in 0..events {
        if det.read_fast(0, 1, StackGen::NONE) == FastPath::Miss {
            det.read_slow(0, 1, 0, &stack, StackGen::NONE);
        }
    }
    let fast_ns = t0.elapsed().as_secs_f64() * 1e9 / events as f64;
    let fast_hits = det.stats().read_fast_hits - hits_before;
    assert_eq!(fast_hits, events, "same-epoch repeats must all hit");

    let mut det = Detector::new();
    let sync_id = 7;
    let t0 = Instant::now();
    for _ in 0..events {
        // Epoch advances every iteration and no stack generation is
        // supplied: every access takes the full slow path with a
        // (host-side) stack to copy, like a lock-per-write program on
        // the pre-cache tree.
        det.acquire(0, sync_id);
        if det.write_fast(0, 1, StackGen::NONE) == FastPath::Miss {
            det.write_slow(0, 1, 0, &stack, StackGen::NONE);
        }
        det.release(0, sync_id);
    }
    let slow_ns = t0.elapsed().as_secs_f64() * 1e9 / events as f64;
    assert_eq!(det.stats().write_fast_hits, 0, "epoch advances must miss");
    println!(
        "detector event: same-epoch fast path {fast_ns:.1}ns vs lock-stride slow path \
         {slow_ns:.1}ns per event ({:.1}x)",
        slow_ns / fast_ns.max(1e-9),
    );
    println!(
        "slow-path clock buffers: {} allocs, {} avoided by reuse",
        det.stats().clock_allocs,
        det.stats().clock_allocs_avoided,
    );
    assert!(
        det.stats().clock_allocs_avoided > det.stats().clock_allocs,
        "steady-state lock handoffs must reuse buffers: {:?}",
        det.stats()
    );

    // 4. The same lock-stride loop with an unchanged stack generation:
    //    the lock-aware owner cache absorbs every post-warmup event and
    //    the release-epoch check short-circuits every self-reacquire.
    let mut det = Detector::new();
    let gen = StackGen::from_parts(0, 42);
    det.acquire(0, sync_id);
    if det.write_fast(0, 1, gen) == FastPath::Miss {
        det.write_slow(0, 1, 0, &stack, gen); // warm the owner cache
    }
    det.release(0, sync_id);
    let t0 = Instant::now();
    for _ in 0..events {
        det.acquire(0, sync_id);
        if det.write_fast(0, 1, gen) == FastPath::Miss {
            det.write_slow(0, 1, 0, &stack, gen);
        }
        det.release(0, sync_id);
    }
    let cached_ns = t0.elapsed().as_secs_f64() * 1e9 / events as f64;
    assert_eq!(
        det.stats().write_sync_hits,
        events,
        "steady-state lock strides must all cache-hit: {:?}",
        det.stats()
    );
    assert_eq!(det.stats().write_fast_hits, 0, "epoch still advances");
    assert_eq!(
        det.stats().sync_epoch_hits,
        events,
        "every self-reacquire is provable from the release epoch"
    );
    println!(
        "lock-stride event with the sync-epoch cache: {cached_ns:.1}ns \
         (was {slow_ns:.1}ns slow-path, {:.1}x)",
        slow_ns / cached_ns.max(1e-9),
    );
    assert!(
        cached_ns < slow_ns,
        "owner-cache hits must beat the slow path: {cached_ns:.1}ns vs {slow_ns:.1}ns"
    );

    println!("\nhot_path contract checks passed");
}
