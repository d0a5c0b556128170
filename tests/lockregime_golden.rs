//! Golden pinning of the *lock-regime* workload across the lock-aware
//! sync-epoch cache.
//!
//! `tests/hotpath_golden.rs` pins the exposure corpus — programs whose
//! races carry no happens-before edge. This suite pins the other half:
//! the sync-heavy and large-heap programs whose every access sits under
//! mutex/RWMutex/WaitGroup traffic, which is exactly where the
//! lock-aware cache (detector owner cache + per-sync release epochs +
//! host stack interning) absorbs the slow path. Two contracts:
//!
//! 1. **Goldens** — bug hashes (none: these programs are properly
//!    synchronised), schedule signatures, step counts, campaign
//!    bookkeeping, the *logical* detector counters and the full
//!    [`govm::RunCounters`] of the default-options campaign are pinned
//!    in `tests/goldens/lockregime_goldens.json` and must never drift.
//! 2. **Cache transparency** — running the identical campaigns with
//!    `VmOptions::sync_epoch_cache` off reproduces every observable
//!    and every logical counter bit-for-bit; only the dedicated cache
//!    counters move.
//!
//! Regenerate (only for *intentional* semantic changes) with:
//!
//! ```text
//! DRFIX_UPDATE_GOLDENS=1 cargo test --test lockregime_golden
//! ```

use corpus::sync_heavy_cases;
use govm::{
    compile_sources, run_test_many, CompileOptions, Program, RunCounters, SchedulePolicy,
    TestConfig, VmOptions,
};
use serde::{Deserialize, Serialize};

/// Campaign base seed (arbitrary, fixed forever).
const CAMPAIGN_SEED: u64 = 0x10C4;
/// Schedules per pinned campaign.
const CAMPAIGN_RUNS: u32 = 8;
/// Large-heap programs in the workload.
const HEAP_CASES: usize = 3;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct LockRegimeGolden {
    case: String,
    policy: String,
    /// Sorted stable bug hashes (empty: the programs are race-free).
    bug_hashes: Vec<String>,
    distinct_schedules: u32,
    duplicate_schedules: u32,
    steps: u64,
    stop: String,
    /// Logical detector counters — identical with the cache on or off.
    det_events: u64,
    fast_hits: u64,
    clock_joins: u64,
    clock_allocs: u64,
    clock_allocs_avoided: u64,
    stack_snapshots: u64,
    /// The default-options campaign's full VM and detector cost
    /// counters, pinned exactly. The transparency test compares only the
    /// logical fields above: the cache counters move by design when the option is
    /// off.
    counters: RunCounters,
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/lockregime_goldens.json")
}

fn policies() -> Vec<SchedulePolicy> {
    vec![SchedulePolicy::Random, SchedulePolicy::pct()]
}

fn workload() -> Vec<(String, Program, String)> {
    let mut programs = Vec::new();
    for (name, src, test) in sync_heavy_cases() {
        let prog = compile_sources(
            &[(format!("{name}.go"), src.to_owned())],
            &CompileOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        programs.push((name.to_owned(), prog, test.to_owned()));
    }
    for case in corpus::generate_large_heap_corpus(HEAP_CASES, 0xD0F1) {
        let prog = compile_sources(&case.files, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        programs.push((case.id.clone(), prog, case.test.clone()));
    }
    programs
}

fn campaign_config(policy: &SchedulePolicy, cache: bool) -> TestConfig {
    TestConfig {
        runs: CAMPAIGN_RUNS,
        seed: CAMPAIGN_SEED,
        stop_on_race: false,
        policy: policy.clone(),
        vm: VmOptions {
            sync_epoch_cache: cache,
            ..VmOptions::default()
        },
        ..TestConfig::default()
    }
}

fn compute(cache: bool) -> Vec<LockRegimeGolden> {
    let mut out = Vec::new();
    for (id, prog, test) in workload() {
        for policy in policies() {
            let o = run_test_many(&prog, &test, &campaign_config(&policy, cache));
            let mut bug_hashes: Vec<String> = o.races.iter().map(|r| r.bug_hash()).collect();
            bug_hashes.sort();
            out.push(LockRegimeGolden {
                case: id.clone(),
                policy: policy.label(),
                bug_hashes,
                distinct_schedules: o.distinct_schedules,
                duplicate_schedules: o.duplicate_schedules,
                steps: o.steps,
                stop: format!("{:?}", o.stop),
                det_events: o.counters.det.events,
                fast_hits: o.counters.det.fast_hits(),
                clock_joins: o.counters.det.clock_joins,
                clock_allocs: o.counters.det.clock_allocs,
                clock_allocs_avoided: o.counters.det.clock_allocs_avoided,
                stack_snapshots: o.counters.stack_snapshots,
                counters: o.counters,
            });
        }
    }
    out
}

#[test]
fn lock_regime_behaviour_matches_goldens() {
    let actual = compute(true);
    let path = golden_path();
    if std::env::var("DRFIX_UPDATE_GOLDENS").is_ok() {
        let json = serde_json::to_string(&actual).expect("serialize goldens");
        std::fs::write(&path, json).expect("write goldens");
        eprintln!("goldens rewritten at {}", path.display());
        return;
    }
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing goldens at {}: {e}", path.display()));
    let expected: Vec<LockRegimeGolden> = serde_json::from_str(&raw).expect("parse goldens");
    assert_eq!(expected.len(), actual.len(), "campaign count drifted");
    for (e, a) in expected.iter().zip(&actual) {
        assert_eq!(
            e, a,
            "lock-regime golden drifted for {} / {}",
            e.case, e.policy
        );
        assert!(
            a.bug_hashes.is_empty(),
            "{}: synchronised programs must stay race-free",
            a.case
        );
        assert_eq!(a.stop, "Completed", "{}: no early exit configured", a.case);
    }
}

/// The entries with their cost counters cleared: the logical fields,
/// which must not depend on the cache.
fn logical(entries: Vec<LockRegimeGolden>) -> Vec<LockRegimeGolden> {
    entries
        .into_iter()
        .map(|g| LockRegimeGolden {
            counters: RunCounters::default(),
            ..g
        })
        .collect()
}

/// The cache must be *transparent*: identical campaigns with it off
/// reproduce every logical golden field bit-for-bit, and the dedicated
/// cache counters are the only thing that moves.
#[test]
fn sync_epoch_cache_is_semantically_transparent() {
    let on = compute(true);
    let off = compute(false);

    // The cache actually worked: at least the sync-heavy arms absorbed
    // slow-path transfers and short-circuited acquire joins.
    let hits = |entries: &[LockRegimeGolden]| -> u64 {
        entries
            .iter()
            .map(|g| g.counters.det.sync_hits() + g.counters.det.sync_epoch_hits)
            .sum()
    };
    for (a, b) in on.iter().zip(&off) {
        assert_eq!(
            a.counters.vm_steps, b.counters.vm_steps,
            "{}: instruction streams must match",
            a.case
        );
    }
    assert!(hits(&on) > 0, "the cache never engaged on the workload");
    assert_eq!(hits(&off), 0, "disabled cache must not count hits");

    assert_eq!(
        logical(on),
        logical(off),
        "cache on/off must be observationally identical"
    );
}
