//! Golden pinning of detection behaviour across the shadow-state
//! lifecycle (GC + clock-slot reclamation).
//!
//! `tests/hotpath_golden.rs` pins the exposure corpus and
//! `tests/lockregime_golden.rs` pins the lock-heavy regime; this suite
//! pins the axis the streaming lifecycle moves on. The workload mixes
//! the racy exposure programs (the detector must keep finding every
//! planted race after sweeps) with the churn programs (generational
//! goroutine turnover — where collection and slot reuse actually
//! fire). Two contracts:
//!
//! 1. **Goldens** — bug hashes, schedule signatures, step counts,
//!    campaign bookkeeping, the *logical* detector counters and the
//!    full [`govm::RunCounters`] with the lifecycle ON (the default)
//!    are pinned in `tests/goldens/shadowgc_goldens.json` and must
//!    never drift.
//! 2. **Lifecycle transparency** — running the identical campaigns
//!    with `VmOptions::shadow_gc` off reproduces every observable and
//!    every logical counter bit-for-bit; only the physical lifecycle
//!    gauges (`states_collected`, `clock_slots_reclaimed`, the peaks)
//!    move.
//!
//! Regenerate (only for *intentional* semantic changes) with:
//!
//! ```text
//! DRFIX_UPDATE_GOLDENS=1 cargo test --test shadowgc_golden
//! ```

use govm::{
    compile_sources, run_test_many, CompileOptions, Program, RunCounters, SchedulePolicy,
    TestConfig, VmOptions,
};
use serde::{Deserialize, Serialize};

/// Campaign base seed (arbitrary, fixed forever).
const CAMPAIGN_SEED: u64 = 0x6C0C;
/// Schedules per pinned campaign.
const CAMPAIGN_RUNS: u32 = 8;
/// Racy exposure programs in the workload (seed shared with the suite).
const EXPOSURE_CASES: usize = 10;
/// Churn programs in the workload.
const CHURN_CASES: usize = 3;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct ShadowGcGolden {
    case: String,
    policy: String,
    /// Sorted stable bug hashes — the exposure arms must keep finding
    /// their planted race after any number of collection sweeps.
    bug_hashes: Vec<String>,
    distinct_schedules: u32,
    duplicate_schedules: u32,
    steps: u64,
    stop: String,
    /// Logical detector counters — identical with the lifecycle on or
    /// off (the lifecycle gauges are only in `counters`).
    det_events: u64,
    fast_hits: u64,
    clock_joins: u64,
    clock_allocs: u64,
    stack_snapshots: u64,
    /// The default-options campaign's full VM and detector cost
    /// counters, pinned exactly. The transparency test compares only the
    /// logical fields above: the lifecycle gauges move by design when the option is
    /// off.
    counters: RunCounters,
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/shadowgc_goldens.json")
}

fn policies() -> Vec<SchedulePolicy> {
    vec![SchedulePolicy::Random, SchedulePolicy::pct()]
}

fn workload() -> Vec<(String, Program, String)> {
    let mut programs = Vec::new();
    let corpus = corpus::generate_exposure_corpus(&corpus::CorpusConfig {
        eval_cases: EXPOSURE_CASES,
        db_pairs: 0,
        seed: 0xD0F1,
    });
    for case in &corpus {
        let prog = compile_sources(&case.files, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        programs.push((case.id.clone(), prog, case.test.clone()));
    }
    for case in corpus::generate_churn_corpus(CHURN_CASES, 0xD0F1) {
        let prog = compile_sources(&case.files, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        programs.push((case.id.clone(), prog, case.test.clone()));
    }
    programs
}

fn campaign_config(policy: &SchedulePolicy, shadow_gc: bool) -> TestConfig {
    TestConfig {
        runs: CAMPAIGN_RUNS,
        seed: CAMPAIGN_SEED,
        stop_on_race: false,
        policy: policy.clone(),
        vm: VmOptions {
            shadow_gc,
            ..VmOptions::default()
        },
        ..TestConfig::default()
    }
}

fn compute(shadow_gc: bool) -> Vec<ShadowGcGolden> {
    let mut out = Vec::new();
    for (id, prog, test) in workload() {
        for policy in policies() {
            let o = run_test_many(&prog, &test, &campaign_config(&policy, shadow_gc));
            let mut bug_hashes: Vec<String> = o.races.iter().map(|r| r.bug_hash()).collect();
            bug_hashes.sort();
            out.push(ShadowGcGolden {
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
                stack_snapshots: o.counters.stack_snapshots,
                counters: o.counters,
            });
        }
    }
    out
}

#[test]
fn shadow_gc_behaviour_matches_goldens() {
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
    let expected: Vec<ShadowGcGolden> = serde_json::from_str(&raw).expect("parse goldens");
    assert_eq!(expected.len(), actual.len(), "campaign count drifted");
    let mut exposure_races = 0usize;
    for (e, a) in expected.iter().zip(&actual) {
        assert_eq!(
            e, a,
            "shadow-GC golden drifted for {} / {}",
            e.case, e.policy
        );
        assert_eq!(a.stop, "Completed", "{}: no early exit configured", a.case);
        if a.case.starts_with("churn-") {
            assert!(
                a.bug_hashes.is_empty(),
                "{}: churn programs are synchronised and must stay race-free",
                a.case
            );
        } else {
            exposure_races += a.bug_hashes.len();
        }
    }
    assert!(
        exposure_races > 0,
        "the exposure arms exposed nothing — the workload has gone inert"
    );
}

/// The entries with their cost counters cleared: the logical fields,
/// which must not depend on the lifecycle.
fn logical(entries: Vec<ShadowGcGolden>) -> Vec<ShadowGcGolden> {
    entries
        .into_iter()
        .map(|g| ShadowGcGolden {
            counters: RunCounters::default(),
            ..g
        })
        .collect()
}

/// The lifecycle must be *transparent*: identical campaigns with GC
/// off reproduce every logical golden field bit-for-bit, and the
/// dedicated lifecycle gauges are the only thing that moves.
#[test]
fn shadow_gc_is_semantically_transparent() {
    let on = compute(true);
    let off = compute(false);

    // The lifecycle actually worked on the churn arms: states were
    // swept and exited goroutines' clock slots were reused.
    let total = |entries: &[ShadowGcGolden], f: fn(&RunCounters) -> u64| -> u64 {
        entries.iter().map(|g| f(&g.counters)).sum()
    };
    for (a, b) in on.iter().zip(&off) {
        assert_eq!(
            a.counters.vm_steps, b.counters.vm_steps,
            "{}: instruction streams must match",
            a.case
        );
        assert!(
            a.counters.peak_clock_width <= b.counters.peak_clock_width,
            "{}: reclamation can only narrow the clocks",
            a.case
        );
    }
    assert!(
        total(&on, |c| c.states_collected) > 0,
        "no collection sweep fired on the workload"
    );
    assert!(
        total(&on, |c| c.clock_slots_reclaimed) > 0,
        "no clock slot was ever reclaimed"
    );
    assert_eq!(
        total(&off, |c| c.states_collected),
        0,
        "disabled lifecycle must not collect"
    );
    assert_eq!(
        total(&off, |c| c.clock_slots_reclaimed),
        0,
        "disabled lifecycle must not reclaim"
    );

    assert_eq!(
        logical(on),
        logical(off),
        "shadow GC on/off must be observationally identical"
    );
}
