//! `hot_path` — interpreter + detector hot-path microbenchmarks.
//!
//! Wall-clock companions to the exact VM and detector counters that
//! the tier-1 goldens pin (`tests/hotpath_golden.rs`,
//! `tests/lockregime_golden.rs`, `tests/shadowgc_golden.rs`):
//!
//! 1. **Per-schedule VM cost** — a fresh `Vm` built for every schedule
//!    vs one [`govm::TestVm`] reset between schedules (what campaigns
//!    use). Building and tearing down a VM per run used to cost more
//!    than the short runs themselves.
//! 2. **Detector event cost** — same-epoch repeats (fast path) vs
//!    epoch-advancing accesses (slow path, stack snapshot + full
//!    transfer function), in events/sec.
//! 3. **Lock-stride events with the sync-epoch cache** — the same
//!    epoch-advancing loop with an unchanged stack generation, which
//!    the lock-aware owner cache absorbs.
//!
//! The bench asserts its contract — the reused VM strictly cheaper per
//! schedule, the fast path and owner cache taking every event they
//! should — so it fails loudly instead of silently reporting nonsense.

use govm::{compile_sources, run_test_with, CompileOptions, TestVm, VmOptions};
use racedet::{Detector, FastPath, StackGen};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    bench::header(
        "hot_path — VM + FastTrack hot-path microbenchmarks",
        "HardRace (per-access overhead budgets); FastTrack (PLDI 2009) same-epoch fast path",
    );

    // 1. Per-schedule cost: a fresh VM per run vs one reset VM, on a
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

    // 2. Detector event cost, fast vs slow path.
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

    // 3. The same lock-stride loop with an unchanged stack generation:
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
