//! The deterministic hot-path workload behind `BENCH_hotpath.json`.
//!
//! One *scan* runs every exposure-corpus case under every built-in
//! schedule policy as a full validation-style campaign and aggregates
//! the VM's [`govm::RunCounters`] per Table 3 category. Two kinds of
//! numbers come out:
//!
//! - **Deterministic cost counters** (VM steps, scheduling points,
//!   detector events, same-epoch fast-path hits, stack snapshots
//!   materialised/avoided, clock joins, clock allocations
//!   made/avoided, races, distinct schedules): exact functions of the
//!   seeded schedules, bit-identical on every machine and across
//!   repeats — so a checked-in baseline is an *exact* regression gate.
//! - **Wall-clock throughput** (instructions/sec): reported for humans
//!   and for the pre/post-optimization comparison, never gated (CI
//!   machines differ).
//!
//! [`run_scan`] executes the scan ([`HotpathScale::repeat`] times,
//! asserting the counters replay bit-identically and keeping the
//! fastest timing); [`check`] diffs a fresh scan against a baseline
//! report and returns the violations — `perfscan --check` is the CI
//! `perf-gate` entry point.

use corpus::{CorpusConfig, RaceCase};
use drfix::fleet::FleetConfig;
use drfix::PipelineConfig;
use govm::{
    compile_sources, run_test_many, CompileOptions, RunCounters, SchedulePolicy, TestConfig, Tier,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Corpus seed shared with the exposure suite and goldens.
pub const CORPUS_SEED: u64 = 0xD0F1;

/// Campaign base seed for every workload run.
pub const WORKLOAD_SEED: u64 = 0xBEEF;

/// Report schema version (bump when the JSON shape changes).
///
/// v2: lock-aware-cache counters (`read_sync_hits`, `write_sync_hits`,
/// `sync_epoch_hits`, `stack_cache_hits`), the LargeHeap workload
/// family, and the PR 4 SyncHeavy wall-clock reference.
///
/// v3: shadow-state lifecycle counters (`states_collected`,
/// `clock_slots_reclaimed`, `peak_shadow_bytes`, `peak_clock_width`),
/// the Churn workload family (generational goroutine turnover — the
/// family the lifecycle exists for), and the sampling-recall section.
///
/// v4: the static-gate section (`candidates_rejected_static`,
/// `validation_instrs_saved`, verdict-mismatch cross-check) measuring
/// what the `statcheck` pre-validation gate saves on a candidate
/// workload derived from the eval corpus.
///
/// v5: the tournament section (`candidates`, `repair_iters`,
/// `validation_steps_per_fix`, static-only VM-step cross-check) gating
/// the multi-candidate tournament arm's candidate counts and dynamic
/// validation budget per fixed case on the statically-interesting
/// tournament corpus families.
///
/// v6: the campaign section (`queue_pops`, `steals`, `steal_probes`,
/// `folds`, `checkpoints`, in-flight/resident high-waters, and the
/// campaign digest) gating the `drfix::campaign` orchestrator's
/// bookkeeping overhead on the serial reference executor, plus the
/// pipelined-vs-serial digest cross-check (`digest_mismatches`, must
/// stay 0). Campaign wall-clock is reported, never gated.
///
/// v7: the tier section (`tier_mismatches`, `reg_fused_ops`,
/// `sync_heavy_vm_steps`) gating the register interpreter tier: the
/// SyncHeavy arms replayed on both tiers back-to-back in-process, every
/// campaign observable compared bit for bit (`tier_mismatches` must
/// stay 0), with the fused-superinstruction count pinned exactly as the
/// physical proof the register tier engaged. Both tiers' wall-clock
/// throughput and their ratio are reported, never gated.
pub const SCHEMA: u32 = 7;

/// Sampling granularities measured into the report's recall section.
/// `1` tracks every address (recall must be total); the coarser mods
/// keep 1/2 and 1/8 of addresses.
pub const SAMPLING_MODS: [u32; 3] = [1, 2, 8];

/// Tolerated relative drift for gated counters before the check fails.
pub const GATE_TOLERANCE: f64 = 0.10;

/// Scale knobs for the scan, read from the environment.
#[derive(Debug, Clone)]
pub struct HotpathScale {
    /// Exposure-corpus size (`DRFIX_PERF_CASES`, default 28).
    pub cases: usize,
    /// Schedules per campaign (`DRFIX_PERF_RUNS`, default 24).
    pub runs: u32,
    /// Timing repetitions (`DRFIX_PERF_REPEAT`, default 5); counters
    /// must replay bit-identically across all of them.
    pub repeat: usize,
    /// Large-heap (map/slice-heavy) programs in the workload
    /// (`DRFIX_PERF_HEAP_CASES`, default 3).
    pub heap_cases: usize,
    /// Churn (generational goroutine-turnover) programs in the
    /// workload (`DRFIX_PERF_CHURN_CASES`, default 3).
    pub churn_cases: usize,
    /// Eval-corpus cases feeding the static-gate candidate workload
    /// (`DRFIX_PERF_GATE_CASES`, default 6).
    pub gate_cases: usize,
    /// Tournament-corpus cases feeding the tournament arm
    /// (`DRFIX_PERF_TOURNAMENT_CASES`, default 8).
    pub tournament_cases: usize,
    /// Streamed cases in the campaign-orchestration arm
    /// (`DRFIX_PERF_CAMPAIGN_CASES`, default 96).
    pub campaign_cases: usize,
}

impl Default for HotpathScale {
    fn default() -> Self {
        HotpathScale {
            cases: 28,
            runs: 24,
            repeat: 5,
            heap_cases: 3,
            churn_cases: 3,
            gate_cases: 6,
            tournament_cases: 8,
            campaign_cases: 96,
        }
    }
}

impl HotpathScale {
    /// Reads `DRFIX_PERF_*` from the environment.
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        let d = HotpathScale::default();
        HotpathScale {
            cases: get("DRFIX_PERF_CASES", d.cases),
            runs: get("DRFIX_PERF_RUNS", d.runs as usize) as u32,
            repeat: get("DRFIX_PERF_REPEAT", d.repeat).max(1),
            heap_cases: get("DRFIX_PERF_HEAP_CASES", d.heap_cases),
            churn_cases: get("DRFIX_PERF_CHURN_CASES", d.churn_cases),
            gate_cases: get("DRFIX_PERF_GATE_CASES", d.gate_cases),
            tournament_cases: get("DRFIX_PERF_TOURNAMENT_CASES", d.tournament_cases),
            campaign_cases: get("DRFIX_PERF_CAMPAIGN_CASES", d.campaign_cases),
        }
    }
}

/// Synthetic synchronisation-heavy programs `(name, source, test)`:
/// mutex handoffs, RWMutex read/write mixes and wait-group fan-ins that
/// the (deliberately unsynchronised) exposure corpus never executes.
/// They put real numbers on the detector's lock-release buffer reuse —
/// without them `clock_allocs_avoided` would be untracked by the gate.
pub fn sync_heavy_cases() -> Vec<(&'static str, &'static str, &'static str)> {
    const MUTEX_COUNTER: &str = r#"package perf

import (
	"sync"
	"testing"
)

func Count() int {
	var mu sync.Mutex
	var wg sync.WaitGroup
	n := 0
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				mu.Lock()
				n = n + 1
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return n
}

func TestCount(t *testing.T) {
	if Count() != 160 {
		t.Errorf("lost updates")
	}
}
"#;

    const RWMUTEX_MIX: &str = r#"package perf

import (
	"sync"
	"testing"
)

func Observe() int {
	var mu sync.RWMutex
	var wg sync.WaitGroup
	total := 0
	value := 0
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				mu.Lock()
				value = value + 1
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for j := 0; j < 30; j++ {
				mu.RLock()
				seen = seen + value
				mu.RUnlock()
			}
			mu.Lock()
			total = total + seen
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total + value
}

func TestObserve(t *testing.T) {
	if Observe() < 60 {
		t.Errorf("readers starved")
	}
}
"#;

    vec![
        ("sync-mutex-counter", MUTEX_COUNTER, "TestCount"),
        ("sync-rwmutex-mix", RWMUTEX_MIX, "TestObserve"),
    ]
}

/// The schedule policies every case is campaigned under.
pub fn workload_policies() -> Vec<SchedulePolicy> {
    vec![
        SchedulePolicy::Random,
        SchedulePolicy::pct(),
        SchedulePolicy::Sweep,
    ]
}

/// The flat deterministic counter set the gate compares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSet {
    /// Instructions executed.
    pub vm_steps: u64,
    /// Scheduling decisions.
    pub sched_points: u64,
    /// Detector read/write events.
    pub det_events: u64,
    /// Reads answered by the same-epoch fast path.
    pub read_fast_hits: u64,
    /// Writes answered by the same-epoch fast path.
    pub write_fast_hits: u64,
    /// Stack snapshots materialised.
    pub stack_snapshots: u64,
    /// Accesses that needed no stack snapshot.
    pub snapshots_avoided: u64,
    /// Vector-clock joins.
    pub clock_joins: u64,
    /// Vector clocks allocated.
    pub clock_allocs: u64,
    /// Clock allocations avoided by in-place joins / buffer reuse.
    pub clock_allocs_avoided: u64,
    /// Reads absorbed by the detector's lock-aware owner cache.
    pub read_sync_hits: u64,
    /// Writes absorbed by the detector's lock-aware owner cache.
    pub write_sync_hits: u64,
    /// Acquire joins short-circuited by the per-sync release epoch.
    pub sync_epoch_hits: u64,
    /// Snapshot rebuilds avoided by the host's interned-stack cache.
    pub stack_cache_hits: u64,
    /// Shadow states retired by `Detector::collect` sweeps.
    pub states_collected: u64,
    /// Vector-clock slots reused after goroutine exit.
    pub clock_slots_reclaimed: u64,
    /// Per-campaign peak shadow footprints, summed (bytes). A gauge of
    /// resident detector memory, deterministic like every counter here.
    pub peak_shadow_bytes: u64,
    /// Per-campaign peak vector-clock widths, summed. With the
    /// lifecycle on this tracks live goroutines, not spawned ones.
    pub peak_clock_width: u64,
    /// Distinct races observed (summed over campaigns).
    pub races: u64,
    /// Distinct schedule signatures (summed over campaigns).
    pub distinct_schedules: u64,
}

impl CounterSet {
    fn add_outcome(&mut self, c: &RunCounters, races: u64, distinct: u64) {
        self.vm_steps += c.vm_steps;
        self.sched_points += c.sched_points;
        self.det_events += c.det.events;
        self.read_fast_hits += c.det.read_fast_hits;
        self.write_fast_hits += c.det.write_fast_hits;
        self.stack_snapshots += c.stack_snapshots;
        self.snapshots_avoided += c.snapshots_avoided;
        self.clock_joins += c.det.clock_joins;
        self.clock_allocs += c.det.clock_allocs;
        self.clock_allocs_avoided += c.det.clock_allocs_avoided;
        self.read_sync_hits += c.det.read_sync_hits;
        self.write_sync_hits += c.det.write_sync_hits;
        self.sync_epoch_hits += c.det.sync_epoch_hits;
        self.stack_cache_hits += c.stack_cache_hits;
        self.states_collected += c.states_collected;
        self.clock_slots_reclaimed += c.clock_slots_reclaimed;
        self.peak_shadow_bytes += c.peak_shadow_bytes;
        self.peak_clock_width += c.peak_clock_width;
        self.races += races;
        self.distinct_schedules += distinct;
    }

    fn accumulate(&mut self, other: &CounterSet) {
        self.vm_steps += other.vm_steps;
        self.sched_points += other.sched_points;
        self.det_events += other.det_events;
        self.read_fast_hits += other.read_fast_hits;
        self.write_fast_hits += other.write_fast_hits;
        self.stack_snapshots += other.stack_snapshots;
        self.snapshots_avoided += other.snapshots_avoided;
        self.clock_joins += other.clock_joins;
        self.clock_allocs += other.clock_allocs;
        self.clock_allocs_avoided += other.clock_allocs_avoided;
        self.read_sync_hits += other.read_sync_hits;
        self.write_sync_hits += other.write_sync_hits;
        self.sync_epoch_hits += other.sync_epoch_hits;
        self.stack_cache_hits += other.stack_cache_hits;
        self.states_collected += other.states_collected;
        self.clock_slots_reclaimed += other.clock_slots_reclaimed;
        self.peak_shadow_bytes += other.peak_shadow_bytes;
        self.peak_clock_width += other.peak_clock_width;
        self.races += other.races;
        self.distinct_schedules += other.distinct_schedules;
    }

    /// Share of detector events answered by the same-epoch fast path.
    pub fn fast_hit_rate(&self) -> f64 {
        if self.det_events == 0 {
            return 0.0;
        }
        (self.read_fast_hits + self.write_fast_hits) as f64 / self.det_events as f64
    }

    /// Share of detector events absorbed stack-free by *either* cheap
    /// path (same-epoch fast path or lock-aware owner cache).
    pub fn stackfree_hit_rate(&self) -> f64 {
        if self.det_events == 0 {
            return 0.0;
        }
        (self.read_fast_hits + self.write_fast_hits + self.read_sync_hits + self.write_sync_hits)
            as f64
            / self.det_events as f64
    }

    /// `(name, value, direction)` triples for the gate; `direction` is
    /// `Cost` (more = regression), `Benefit` (fewer = regression) or
    /// `Exact` (any drift = regression).
    pub fn gauges(&self) -> Vec<(&'static str, u64, Direction)> {
        vec![
            ("vm_steps", self.vm_steps, Direction::Cost),
            ("sched_points", self.sched_points, Direction::Cost),
            ("det_events", self.det_events, Direction::Cost),
            ("read_fast_hits", self.read_fast_hits, Direction::Benefit),
            ("write_fast_hits", self.write_fast_hits, Direction::Benefit),
            ("stack_snapshots", self.stack_snapshots, Direction::Cost),
            (
                "snapshots_avoided",
                self.snapshots_avoided,
                Direction::Benefit,
            ),
            ("clock_joins", self.clock_joins, Direction::Cost),
            ("clock_allocs", self.clock_allocs, Direction::Cost),
            (
                "clock_allocs_avoided",
                self.clock_allocs_avoided,
                Direction::Benefit,
            ),
            ("read_sync_hits", self.read_sync_hits, Direction::Benefit),
            ("write_sync_hits", self.write_sync_hits, Direction::Benefit),
            ("sync_epoch_hits", self.sync_epoch_hits, Direction::Benefit),
            (
                "stack_cache_hits",
                self.stack_cache_hits,
                Direction::Benefit,
            ),
            (
                "states_collected",
                self.states_collected,
                Direction::Benefit,
            ),
            (
                "clock_slots_reclaimed",
                self.clock_slots_reclaimed,
                Direction::Benefit,
            ),
            ("peak_shadow_bytes", self.peak_shadow_bytes, Direction::Cost),
            ("peak_clock_width", self.peak_clock_width, Direction::Cost),
            ("races", self.races, Direction::Exact),
            (
                "distinct_schedules",
                self.distinct_schedules,
                Direction::Exact,
            ),
        ]
    }
}

/// Which direction of drift counts as a regression for a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Higher is worse (work performed).
    Cost,
    /// Lower is worse (work avoided).
    Benefit,
    /// Any change is a regression (semantic fingerprints).
    Exact,
}

/// Aggregate for one corpus category (or the whole scan).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CategoryReport {
    /// Table 3 category name (or `"total"`).
    pub category: String,
    /// Cases in the category.
    pub cases: usize,
    /// Deterministic counters (gated).
    pub counters: CounterSet,
    /// Fastest wall-clock for the category's campaigns, seconds
    /// (reported, never gated).
    pub elapsed_s: f64,
    /// Instructions per second over the fastest repetition (reported,
    /// never gated).
    pub ips: f64,
}

/// The fixed pre-optimization reference: the same workload measured on
/// the seed tree (commit `75fee3a`, the state before PR 4's hot-path
/// pass) on the reference container. Wall-clock, so indicative — the
/// deterministic gate never compares against it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreOptimizationRef {
    /// Where the reference numbers came from.
    pub description: String,
    /// Instructions/sec over the exposure-corpus half of the workload
    /// (racy + human-fix campaigns) on the seed tree — the reference
    /// for the headline >=2x claim.
    pub exposure_ips: f64,
    /// VM steps of the exposure half on the seed tree (equal to the
    /// current scan by construction — pinned as a cross-check).
    pub exposure_vm_steps: u64,
}

/// Default pre-optimization reference for the default workload scale.
pub fn pre_optimization_reference() -> PreOptimizationRef {
    PreOptimizationRef {
        description: "seed tree 75fee3a, DRFIX_PERF_CASES=28 DRFIX_PERF_RUNS=24 \
                      (racy + human-fix + sync-heavy campaigns), reference \
                      container (1 core), fastest of 6 repetitions"
            .to_owned(),
        exposure_ips: 4_545_015.0,
        exposure_vm_steps: 431_835,
    }
}

/// The PR 4 reference for the SyncHeavy arms: the same two sync-heavy
/// programs measured on the tree *before* the lock-aware sync-epoch
/// cache (commit `d181f2f`, whose checked-in baseline this is taken
/// from). Wall-clock, so indicative — the deterministic gate never
/// compares against it; it backs the "SyncHeavy ≥1.5×" claim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pr4Reference {
    /// Where the reference numbers came from.
    pub description: String,
    /// SyncHeavy-category instructions/sec on the PR 4 tree.
    pub sync_heavy_ips: f64,
    /// SyncHeavy-category VM steps on the PR 4 tree (equal to the
    /// current scan by construction — pinned as a cross-check).
    pub sync_heavy_vm_steps: u64,
}

/// Default PR 4 SyncHeavy reference for the default workload scale.
pub fn pr4_reference() -> Pr4Reference {
    Pr4Reference {
        description: "PR 4 tree d181f2f, DRFIX_PERF_CASES=28 DRFIX_PERF_RUNS=24, \
                      SyncHeavy category of the checked-in BENCH_hotpath.json \
                      (reference container, 1 core, fastest of 5 repetitions)"
            .to_owned(),
        sync_heavy_ips: 19_419_943.0,
        sync_heavy_vm_steps: 505_874,
    }
}

/// The workload parameters a report was produced with; the gate refuses
/// to compare reports from different workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Exposure-corpus size.
    pub cases: usize,
    /// Schedules per campaign.
    pub runs: u32,
    /// Campaign base seed.
    pub seed: u64,
    /// Policy labels, in campaign order.
    pub policies: Vec<String>,
    /// Whether each case's human fix is also campaigned (the validate
    /// half of the workload).
    pub include_fixes: bool,
    /// Number of synthetic sync-heavy programs in the workload.
    pub sync_heavy_cases: usize,
    /// Number of large-heap (map/slice-heavy) programs in the workload.
    pub large_heap_cases: usize,
    /// Number of churn (goroutine-turnover) programs in the workload.
    pub churn_cases: usize,
    /// Eval-corpus cases feeding the static-gate candidate workload.
    pub gate_cases: usize,
    /// Tournament-corpus cases feeding the tournament arm.
    pub tournament_cases: usize,
    /// Streamed cases in the campaign-orchestration arm.
    pub campaign_cases: usize,
}

/// Detection recall at one sampling granularity, measured by running
/// the racy exposure programs under PCT with `sample_mod` set and
/// counting the cases that still expose their planted race.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplingRecall {
    /// The `VmOptions::sample_mod` the campaigns ran with.
    pub sample_mod: u32,
    /// Racy cases whose planted race was still reported.
    pub exposed: usize,
    /// Racy cases campaigned.
    pub total: usize,
    /// `exposed / total`; 1.0 by construction at `sample_mod == 1`.
    pub recall: f64,
}

/// What the `statcheck` pre-validation gate buys, measured on a
/// candidate workload derived from the eval corpus: every diagnosed
/// repair strategy applied both cleanly and botched, each candidate
/// validated twice — gate on and gate off — with identical seeds.
/// Fully deterministic (seeded schedules, no wall-clock), so every
/// field is gated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticGateReport {
    /// Candidate patches produced and validated (both arms).
    pub candidates: u64,
    /// Candidates the gate rejected before any schedule ran.
    pub candidates_rejected_static: u64,
    /// Candidates that passed the gate yet validated differently with
    /// the gate off — must stay 0 (the gate is invisible to survivors).
    pub verdict_mismatches: u64,
    /// VM instructions spent by dynamic validation with the gate on.
    pub validation_vm_steps_gated: u64,
    /// VM instructions spent by dynamic validation with the gate off.
    pub validation_vm_steps_ungated: u64,
    /// Instructions the gate saved (`ungated - gated`).
    pub validation_instrs_saved: u64,
}

impl StaticGateReport {
    /// `(name, value, direction)` triples for the gate, mirroring
    /// [`CounterSet::gauges`]. Candidate/rejection counts and the
    /// mismatch cross-check are exact fingerprints; the instruction
    /// columns get the usual cost/benefit tolerance.
    pub fn gauges(&self) -> Vec<(&'static str, u64, Direction)> {
        vec![
            ("candidates", self.candidates, Direction::Exact),
            (
                "candidates_rejected_static",
                self.candidates_rejected_static,
                Direction::Exact,
            ),
            (
                "verdict_mismatches",
                self.verdict_mismatches,
                Direction::Exact,
            ),
            (
                "validation_vm_steps_gated",
                self.validation_vm_steps_gated,
                Direction::Cost,
            ),
            (
                "validation_instrs_saved",
                self.validation_instrs_saved,
                Direction::Benefit,
            ),
        ]
    }
}

/// Measures [`StaticGateReport`]: for each racy eval-corpus case, the
/// diagnosed repair strategies are applied cleanly (`botch 0`) and
/// botched (`botch 1`) — the same candidate distribution the synthetic
/// model emits — and every candidate is validated twice with identical
/// seeds, static gate on and off. Deterministic by construction.
pub fn measure_static_gate(scale: &HotpathScale) -> StaticGateReport {
    let corpus = corpus::generate_eval_corpus(&CorpusConfig {
        eval_cases: scale.gate_cases,
        db_pairs: 0,
        seed: CORPUS_SEED,
    });
    let mut rep = StaticGateReport::default();
    for case in corpus.iter().filter(|c| c.fixable && c.hard.is_none()) {
        let Ok(prog) = compile_sources(&case.files, &CompileOptions::default()) else {
            continue;
        };
        let detect = run_test_many(
            &prog,
            &case.test,
            &TestConfig {
                runs: 8,
                seed: WORKLOAD_SEED,
                stop_on_race: true,
                ..TestConfig::default()
            },
        );
        let Some(race) = detect.races.first() else {
            continue;
        };
        let bug_hash = race.bug_hash();
        for (idx, (_, src)) in case.files.iter().enumerate() {
            let Ok(file) = golite::parse_file(src) else {
                continue;
            };
            let mut targets: Vec<_> = synthllm::diagnose::diagnose(&file, &race.var_name)
                .into_iter()
                .map(|d| (d.strategy, d.target))
                .collect();
            targets.dedup();
            targets.truncate(3);
            for (strategy, target) in &targets {
                for botch in 0u8..=1 {
                    let Ok(patched_file) =
                        synthllm::strategy::apply(*strategy, &file, target, botch)
                    else {
                        continue;
                    };
                    let mut patched = case.files.clone();
                    patched[idx].1 = golite::print_file(&patched_file);
                    let vcfg = TestConfig {
                        runs: scale.runs.min(8),
                        seed: WORKLOAD_SEED,
                        stop_on_race: false,
                        ..TestConfig::default()
                    };
                    let gated = drfix::validate_patch_report(
                        &patched,
                        &case.test,
                        &bug_hash,
                        &vcfg,
                        &drfix::ValidationOptions { static_gate: true },
                    );
                    let ungated = drfix::validate_patch_report(
                        &patched,
                        &case.test,
                        &bug_hash,
                        &vcfg,
                        &drfix::ValidationOptions { static_gate: false },
                    );
                    rep.candidates += 1;
                    rep.validation_vm_steps_gated += gated.vm_steps;
                    rep.validation_vm_steps_ungated += ungated.vm_steps;
                    if gated.rejected_static {
                        rep.candidates_rejected_static += 1;
                    } else if gated.verdict.is_ok() != ungated.verdict.is_ok() {
                        rep.verdict_mismatches += 1;
                    }
                }
            }
        }
    }
    rep.validation_instrs_saved = rep
        .validation_vm_steps_ungated
        .saturating_sub(rep.validation_vm_steps_gated);
    rep
}

/// What the multi-candidate tournament arm costs and buys, measured on
/// the statically-interesting tournament corpus families (RWMutex
/// upgrades, double-checked locking, channel selects, racy returns)
/// against the single-path loop on identical per-case seeds. Fully
/// deterministic (seeded model draws, seeded schedules), so every
/// field is gated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TournamentBenchReport {
    /// Tournament-corpus cases campaigned (both arms).
    pub cases: u64,
    /// Cases the tournament arm fixed.
    pub cases_fixed: u64,
    /// Cases the single-path reference loop fixed — the superset
    /// invariant keeps this ≤ `cases_fixed`.
    pub cases_fixed_single_path: u64,
    /// Candidates the tournament enumerated across all cases.
    pub candidates: u64,
    /// Candidates rejected by the static gate, at zero schedule cost.
    pub candidates_rejected_static: u64,
    /// Repair-loop iterations run against `statcheck` diagnostics.
    pub repair_iters: u64,
    /// Static lint probes taken by the repair loop.
    pub lint_probes: u64,
    /// Dynamic validation campaigns launched.
    pub validations: u64,
    /// VM instructions spent by dynamic validation.
    pub validation_vm_steps: u64,
    /// `validation_vm_steps / cases_fixed` — the dynamic budget one
    /// landed fix costs. The headline ratio the gate watches.
    pub validation_steps_per_fix: u64,
    /// VM instructions spent on cases whose *entire* roster died at the
    /// static gate — must stay 0 (the repair loop and the gate burn no
    /// schedules).
    pub static_only_vm_steps: u64,
}

impl TournamentBenchReport {
    /// `(name, value, direction)` triples, mirroring
    /// [`StaticGateReport::gauges`]. Case, candidate, and repair counts
    /// are exact fingerprints of the seeded tournament; the VM-step
    /// columns get the usual cost tolerance; the static-only column is
    /// exact (and zero) by the repair loop's no-schedules invariant.
    pub fn gauges(&self) -> Vec<(&'static str, u64, Direction)> {
        vec![
            ("cases", self.cases, Direction::Exact),
            ("cases_fixed", self.cases_fixed, Direction::Exact),
            (
                "cases_fixed_single_path",
                self.cases_fixed_single_path,
                Direction::Exact,
            ),
            ("candidates", self.candidates, Direction::Exact),
            (
                "candidates_rejected_static",
                self.candidates_rejected_static,
                Direction::Exact,
            ),
            ("repair_iters", self.repair_iters, Direction::Exact),
            ("lint_probes", self.lint_probes, Direction::Exact),
            ("validations", self.validations, Direction::Exact),
            (
                "validation_vm_steps",
                self.validation_vm_steps,
                Direction::Cost,
            ),
            (
                "validation_steps_per_fix",
                self.validation_steps_per_fix,
                Direction::Cost,
            ),
            (
                "static_only_vm_steps",
                self.static_only_vm_steps,
                Direction::Exact,
            ),
        ]
    }
}

/// Measures [`TournamentBenchReport`]: the tournament corpus is run
/// through the single-path loop and the tournament arm on identical
/// per-case seeds (serial fleet — the outcomes are bit-identical at
/// any thread count, so the cheapest shard plan is fine for counters).
pub fn measure_tournament(scale: &HotpathScale) -> TournamentBenchReport {
    let cases = corpus::generate_tournament_corpus(&CorpusConfig {
        eval_cases: scale.tournament_cases,
        db_pairs: 0,
        seed: CORPUS_SEED,
    });
    let cfg = PipelineConfig {
        tier: synthllm::ModelTier::Gpt4Turbo,
        rag: drfix::RagMode::None,
        validation_runs: scale.runs.min(8),
        detect_runs: 24,
        seed: WORKLOAD_SEED,
        ..PipelineConfig::default()
    };
    let fleet = FleetConfig::serial();
    let single = crate::run_arm_with("single-path", cfg.clone(), &fleet, &cases, None);
    let tourn = crate::run_arm_with(
        "tournament",
        PipelineConfig {
            tournament: Some(drfix::TournamentConfig::default()),
            ..cfg
        },
        &fleet,
        &cases,
        None,
    );
    let mut rep = TournamentBenchReport {
        cases: cases.len() as u64,
        cases_fixed_single_path: single.fixed() as u64,
        ..TournamentBenchReport::default()
    };
    for out in &tourn.outcomes {
        rep.cases_fixed += out.fixed as u64;
        rep.candidates_rejected_static += u64::from(out.rejected_static);
        rep.validations += u64::from(out.validations);
        rep.validation_vm_steps += out.validation_vm_steps;
        let Some(t) = &out.tournament else { continue };
        rep.candidates += t.candidates.len() as u64;
        rep.repair_iters += u64::from(t.repair_iters);
        rep.lint_probes += u64::from(t.lint_probes);
        let all_static = !t.candidates.is_empty()
            && t.candidates
                .iter()
                .all(|c| matches!(c.outcome, drfix::CandidateOutcome::RejectedStatic { .. }));
        if all_static {
            rep.static_only_vm_steps += out.validation_vm_steps;
        }
    }
    rep.validation_steps_per_fix = rep
        .validation_vm_steps
        .checked_div(rep.cases_fixed)
        .unwrap_or(0);
    rep
}

/// What the `drfix::campaign` orchestrator's bookkeeping costs at
/// campaign scale, measured on the serial reference executor (whose
/// queue/steal/fold counters are exact functions of the configuration)
/// with a pipelined run alongside as the determinism cross-check.
/// Wall-clock fields are reported, never gated.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignBenchReport {
    /// Streamed cases in the campaign.
    pub cases: u64,
    /// Queue shards.
    pub shards: u64,
    /// Successful claims from the sharded queues (serial run).
    pub queue_pops: u64,
    /// Claims served off the home shard (serial run: the lone worker
    /// drains shard 0 then walks the rest, so this is exact).
    pub steals: u64,
    /// Shard queues examined across all claims (serial run).
    pub steal_probes: u64,
    /// Result-collection instructions: outcomes folded into the
    /// per-shard digests (serial run).
    pub folds: u64,
    /// Checkpoint snapshots written (serial run).
    pub checkpoints: u64,
    /// Cases whose detection exposed a race.
    pub raced: u64,
    /// VM instructions spent detecting.
    pub detect_vm_steps: u64,
    /// Resident generated-case-bytes high-water of the serial run — the
    /// streaming invariant's floor (exactly one case resident).
    pub peak_resident_case_bytes: u64,
    /// Resident case-bytes high-water of the pipelined run — bounded by
    /// the in-flight window, not the campaign length.
    pub pipelined_peak_resident_case_bytes: u64,
    /// In-flight high-water of the pipelined run (≤ the window).
    pub pipelined_peak_in_flight: u64,
    /// The campaign digest of the serial run (exact fingerprint of
    /// every folded outcome).
    pub digest: u64,
    /// Pipelined runs whose digest differed from the serial reference —
    /// must stay 0 (work-stealing changes placement, never outcomes).
    pub digest_mismatches: u64,
    /// Serial wall-clock seconds (reported, never gated).
    pub wall_seconds_serial: f64,
    /// Pipelined wall-clock seconds (reported, never gated).
    pub wall_seconds_pipelined: f64,
}

impl CampaignBenchReport {
    /// `(name, value, direction)` triples, mirroring
    /// [`TournamentBenchReport::gauges`]. The orchestration counters
    /// (queue ops, steals, folds, checkpoints) and the digest are exact
    /// fingerprints of the serial reference; the VM-step and serial
    /// resident-bytes columns get the usual cost tolerance. The
    /// pipelined high-waters are *bounded* by configuration but land
    /// wherever thread timing puts them, so — like wall-clock — they
    /// are reported, never gated (the bound itself is asserted by
    /// [`measure_campaign`] and the A/B test suite).
    pub fn gauges(&self) -> Vec<(&'static str, u64, Direction)> {
        vec![
            ("cases", self.cases, Direction::Exact),
            ("shards", self.shards, Direction::Exact),
            ("queue_pops", self.queue_pops, Direction::Exact),
            ("steals", self.steals, Direction::Exact),
            ("steal_probes", self.steal_probes, Direction::Exact),
            ("folds", self.folds, Direction::Exact),
            ("checkpoints", self.checkpoints, Direction::Exact),
            ("raced", self.raced, Direction::Exact),
            ("detect_vm_steps", self.detect_vm_steps, Direction::Cost),
            (
                "peak_resident_case_bytes",
                self.peak_resident_case_bytes,
                Direction::Cost,
            ),
            ("digest", self.digest, Direction::Exact),
            (
                "digest_mismatches",
                self.digest_mismatches,
                Direction::Exact,
            ),
        ]
    }
}

/// The campaign arm's fixed configuration (shared by the serial
/// reference and the pipelined cross-check so their digests compare).
fn campaign_bench_config(scale: &HotpathScale) -> drfix::CampaignConfig {
    let mut cfg = drfix::CampaignConfig::new(
        scale.campaign_cases,
        4,
        corpus::stream::StreamConfig {
            family: corpus::stream::StreamFamily::Exposure,
            seed: CORPUS_SEED,
        },
    );
    cfg.pipeline = PipelineConfig {
        seed: WORKLOAD_SEED,
        detect_runs: 12,
        ..PipelineConfig::default()
    };
    // Scales with the arm so checkpoints fire (≈2 per shard) at any
    // DRFIX_PERF_CAMPAIGN_CASES — deterministic, hence gateable.
    cfg.checkpoint_every = (scale.campaign_cases / (cfg.shards * 2)).max(1);
    cfg
}

/// Measures [`CampaignBenchReport`]: one serial campaign for the exact
/// orchestration counters, one pipelined campaign (4 workers) for the
/// digest cross-check and the bounded-window high-waters.
pub fn measure_campaign(scale: &HotpathScale) -> CampaignBenchReport {
    let cfg = campaign_bench_config(scale);
    let serial =
        drfix::campaign::run_campaign(&cfg, None, None).expect("serial campaign bench run");
    let mut pcfg = cfg.clone();
    pcfg.workers = 4;
    let pipelined =
        drfix::campaign::run_campaign(&pcfg, None, None).expect("pipelined campaign bench run");
    assert!(
        pipelined.metrics.peak_in_flight <= pcfg.in_flight_limit() as u64,
        "pipelined campaign exceeded its in-flight window: {} > {}",
        pipelined.metrics.peak_in_flight,
        pcfg.in_flight_limit(),
    );
    let sm = &serial.metrics;
    CampaignBenchReport {
        cases: scale.campaign_cases as u64,
        shards: cfg.shards as u64,
        queue_pops: sm.queue_pops,
        steals: sm.steals,
        steal_probes: sm.steal_probes,
        folds: sm.folds,
        checkpoints: sm.checkpoints,
        raced: sm.tallies.raced,
        detect_vm_steps: sm.tallies.detect_vm_steps,
        peak_resident_case_bytes: sm.peak_resident_case_bytes,
        pipelined_peak_resident_case_bytes: pipelined.metrics.peak_resident_case_bytes,
        pipelined_peak_in_flight: pipelined.metrics.peak_in_flight,
        digest: serial.snapshot.digest(),
        digest_mismatches: u64::from(pipelined.snapshot.digest() != serial.snapshot.digest()),
        wall_seconds_serial: sm.wall_seconds,
        wall_seconds_pipelined: pipelined.metrics.wall_seconds,
    }
}

/// The interpreter-tier section: the SyncHeavy arms replayed on the
/// stack tier and the lowered register tier back-to-back in the same
/// process. The deterministic halves (`tier_mismatches`,
/// `reg_fused_ops`, `sync_heavy_vm_steps`) are gated; the wall-clock
/// halves (`stack_ips`, `reg_ips`, `reg_speedup`) are reported, never
/// gated.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TierBenchReport {
    /// `(case, policy)` campaigns whose observables (counters, step
    /// totals, schedule-dedup tallies, race reports, test failures)
    /// differed between tiers — must stay 0: the register tier is
    /// logically invisible.
    pub tier_mismatches: u64,
    /// Fused superinstructions the register tier executed across all
    /// SyncHeavy campaigns. An exact function of the seeded schedules;
    /// pinned so the register tier can never silently degrade to the
    /// unfused loop (and the stack tier never fuses at all).
    pub reg_fused_ops: u64,
    /// SyncHeavy VM steps — identical on both tiers by construction,
    /// pinned as the cross-check that both arms ran the same work.
    pub sync_heavy_vm_steps: u64,
    /// Stack-tier SyncHeavy throughput, instr/s (reported, never gated).
    pub stack_ips: f64,
    /// Register-tier SyncHeavy throughput, instr/s (reported, never
    /// gated).
    pub reg_ips: f64,
    /// `reg_ips / stack_ips` (reported, never gated).
    pub reg_speedup: f64,
}

impl TierBenchReport {
    /// `(name, value, direction)` triples, mirroring
    /// [`CampaignBenchReport::gauges`]. Every deterministic field is an
    /// exact fingerprint; wall-clock never appears here.
    pub fn gauges(&self) -> Vec<(&'static str, u64, Direction)> {
        vec![
            ("tier_mismatches", self.tier_mismatches, Direction::Exact),
            ("reg_fused_ops", self.reg_fused_ops, Direction::Exact),
            (
                "sync_heavy_vm_steps",
                self.sync_heavy_vm_steps,
                Direction::Exact,
            ),
        ]
    }
}

/// Measures [`TierBenchReport`]: every SyncHeavy `(case, policy)`
/// campaign runs under both tiers with identical seeds,
/// [`HotpathScale::repeat`] timing repetitions each (fastest kept,
/// counters asserted to replay), and the per-campaign observables are
/// compared bit for bit.
pub fn measure_tiers(scale: &HotpathScale) -> TierBenchReport {
    let arms: Vec<(String, govm::Program)> = sync_heavy_cases()
        .into_iter()
        .map(|(name, src, test)| {
            let prog = compile_sources(
                &[(format!("{name}.go"), src.to_owned())],
                &CompileOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            (test.to_owned(), prog)
        })
        .collect();
    let policies = workload_policies();
    // Everything one campaign observed that the tiers must agree on.
    type Summary = (RunCounters, u64, u32, u32, Vec<String>, Vec<String>);
    let campaign = |tier: Tier| -> (Vec<Summary>, u64, f64) {
        let mut summaries: Vec<Summary> = Vec::new();
        let mut fused = 0u64;
        let mut best = f64::MAX;
        for rep in 0..scale.repeat {
            let mut rep_summaries: Vec<Summary> = Vec::new();
            let mut rep_fused = 0u64;
            let mut elapsed = 0.0;
            for (test, prog) in &arms {
                for policy in &policies {
                    let cfg = TestConfig {
                        runs: scale.runs,
                        seed: WORKLOAD_SEED,
                        stop_on_race: false,
                        policy: policy.clone(),
                        vm: govm::VmOptions {
                            tier,
                            ..govm::VmOptions::default()
                        },
                        ..TestConfig::default()
                    };
                    let t0 = Instant::now();
                    let out = run_test_many(prog, test, &cfg);
                    elapsed += t0.elapsed().as_secs_f64();
                    rep_fused += out.fused_ops;
                    rep_summaries.push((
                        out.counters,
                        out.steps,
                        out.distinct_schedules,
                        out.duplicate_schedules,
                        out.races.iter().map(|r| r.bug_hash()).collect(),
                        out.test_failures,
                    ));
                }
            }
            if rep == 0 {
                summaries = rep_summaries;
                fused = rep_fused;
            } else {
                assert_eq!(
                    summaries, rep_summaries,
                    "tier campaigns must replay bit-identically across repetitions"
                );
                assert_eq!(fused, rep_fused);
            }
            if elapsed < best {
                best = elapsed;
            }
        }
        (summaries, fused, best)
    };
    let (stack_sums, stack_fused, stack_best) = campaign(Tier::Stack);
    let (reg_sums, reg_fused, reg_best) = campaign(Tier::Reg);
    assert_eq!(stack_fused, 0, "the stack tier must never fuse");
    let tier_mismatches = stack_sums
        .iter()
        .zip(reg_sums.iter())
        .filter(|(a, b)| a != b)
        .count() as u64;
    let vm_steps: u64 = stack_sums.iter().map(|s| s.0.vm_steps).sum();
    let stack_ips = if stack_best > 0.0 && stack_best < f64::MAX {
        vm_steps as f64 / stack_best
    } else {
        0.0
    };
    let reg_ips = if reg_best > 0.0 && reg_best < f64::MAX {
        vm_steps as f64 / reg_best
    } else {
        0.0
    };
    TierBenchReport {
        tier_mismatches,
        reg_fused_ops: reg_fused,
        sync_heavy_vm_steps: vm_steps,
        stack_ips,
        reg_ips,
        reg_speedup: if stack_ips > 0.0 {
            reg_ips / stack_ips
        } else {
            0.0
        },
    }
}

/// The `BENCH_hotpath.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Schema version.
    pub schema: u32,
    /// Workload parameters.
    pub workload: WorkloadSpec,
    /// Fixed pre-optimization reference (wall-clock, indicative).
    pub pre_optimization: PreOptimizationRef,
    /// Fixed PR 4 SyncHeavy reference (wall-clock, indicative).
    pub pr4: Pr4Reference,
    /// Exposure-corpus throughput vs the pre-optimization reference —
    /// the headline number (only meaningful at the default scale).
    pub exposure_speedup_vs_pre_optimization: f64,
    /// SyncHeavy-category throughput vs the PR 4 reference — the
    /// lock-aware sync-epoch cache's headline number (only meaningful
    /// at the default scale).
    pub sync_heavy_speedup_vs_pr4: f64,
    /// SyncHeavy throughput with the lock-aware caches *disabled*,
    /// measured back-to-back in the same process (machine-controlled
    /// A/B; instructions are bit-identical either way).
    pub sync_heavy_nocache_ips: f64,
    /// SyncHeavy cache-on over cache-off throughput — the
    /// noise-immune measure of what the caches themselves buy.
    pub sync_heavy_cache_speedup: f64,
    /// Detection recall per sampling granularity (`SAMPLING_MODS`),
    /// measured on the racy exposure programs. Deterministic, but not
    /// part of the counter gate — the `sample_mod == 1` entry's total
    /// recall is asserted by the test suite instead.
    pub sampling: Vec<SamplingRecall>,
    /// What the `statcheck` pre-validation gate saves on the candidate
    /// workload (deterministic; every field gated).
    pub static_gate: StaticGateReport,
    /// What the multi-candidate tournament arm costs and buys vs the
    /// single-path loop (deterministic; every field gated).
    pub tournament: TournamentBenchReport,
    /// What the campaign orchestrator's bookkeeping costs at campaign
    /// scale (serial counters exact-gated; pipelined digest cross-check;
    /// wall-clock reported, never gated).
    pub campaign: CampaignBenchReport,
    /// The register-tier A/B on the SyncHeavy arms (mismatch and
    /// fused-op counts exact-gated; wall-clock reported, never gated).
    pub tier: TierBenchReport,
    /// Exposure-corpus aggregate (racy + human-fix campaigns; excludes
    /// the sync-heavy add-on).
    pub exposure: CategoryReport,
    /// Whole-scan aggregate.
    pub total: CategoryReport,
    /// Per-category aggregates, sorted by category name.
    pub categories: Vec<CategoryReport>,
}

/// One compiled program of the workload, with its reporting category.
struct WorkloadProgram {
    category: String,
    id: String,
    test: String,
    prog: govm::Program,
}

fn workload_programs(scale: &HotpathScale) -> (Vec<RaceCase>, Vec<WorkloadProgram>) {
    let corpus = corpus::generate_exposure_corpus(&CorpusConfig {
        eval_cases: scale.cases,
        db_pairs: 0,
        seed: CORPUS_SEED,
    });
    // Two programs per exposure case: the racy rendition (the paper's
    // reproduce step — detector slow paths, spin-heavy schedules) and
    // the human fix (the validate step — where a campaign spends most
    // of its instructions). Plus the synthetic sync-heavy programs,
    // which exercise the lock-handoff clock-reuse path.
    let mut programs = Vec::new();
    for case in &corpus {
        let cat = format!("{:?}", case.category);
        let racy = compile_sources(&case.files, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        programs.push(WorkloadProgram {
            category: cat.clone(),
            id: case.id.clone(),
            test: case.test.clone(),
            prog: racy,
        });
        if let Some(fix) = &case.human_fix {
            let fixed = compile_sources(fix, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{} fix: {e}", case.id));
            programs.push(WorkloadProgram {
                category: cat,
                id: format!("{}-fixed", case.id),
                test: case.test.clone(),
                prog: fixed,
            });
        }
    }
    for (name, src, test) in sync_heavy_cases() {
        let prog = compile_sources(
            &[(format!("{name}.go"), src.to_owned())],
            &CompileOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        programs.push(WorkloadProgram {
            category: "SyncHeavy".to_owned(),
            id: name.to_owned(),
            test: test.to_owned(),
            prog,
        });
    }
    // The large-heap family: map/slice-heavy working sets of hundreds
    // of tracked cells (dense detector state, read-shared promotion at
    // scale, per-element RLock traffic).
    for case in corpus::generate_large_heap_corpus(scale.heap_cases, CORPUS_SEED) {
        let prog = compile_sources(&case.files, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        programs.push(WorkloadProgram {
            category: "LargeHeap".to_owned(),
            id: case.id.clone(),
            test: case.test.clone(),
            prog,
        });
    }
    // The churn family: generations of short-lived goroutines over
    // fresh buffers — the workload whose shadow/clock footprint the
    // lifecycle (shadow GC + clock-slot reclamation) keeps bounded.
    for case in corpus::generate_churn_corpus(scale.churn_cases, CORPUS_SEED) {
        let prog = compile_sources(&case.files, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        programs.push(WorkloadProgram {
            category: "Churn".to_owned(),
            id: case.id.clone(),
            test: case.test.clone(),
            prog,
        });
    }
    (corpus, programs)
}

/// Measures detection recall per sampling granularity: every racy
/// exposure program is campaigned under PCT (the proven exposer —
/// median 1 schedule at `sample_mod == 1`) with each mod in
/// [`SAMPLING_MODS`], and a case counts as exposed if any schedule in
/// the budget reports a race. Fully deterministic.
pub fn measure_sampling_recall(scale: &HotpathScale) -> Vec<SamplingRecall> {
    let corpus = corpus::generate_exposure_corpus(&CorpusConfig {
        eval_cases: scale.cases,
        db_pairs: 0,
        seed: CORPUS_SEED,
    });
    let progs: Vec<(String, govm::Program)> = corpus
        .iter()
        .map(|case| {
            let prog = compile_sources(&case.files, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", case.id));
            (case.test.clone(), prog)
        })
        .collect();
    SAMPLING_MODS
        .iter()
        .map(|&sample_mod| {
            let exposed = progs
                .iter()
                .filter(|(test, prog)| {
                    let cfg = TestConfig {
                        runs: scale.runs,
                        seed: WORKLOAD_SEED,
                        stop_on_race: true,
                        policy: SchedulePolicy::pct(),
                        vm: govm::VmOptions {
                            sample_mod,
                            ..govm::VmOptions::default()
                        },
                        ..TestConfig::default()
                    };
                    !run_test_many(prog, test, &cfg).races.is_empty()
                })
                .count();
            SamplingRecall {
                sample_mod,
                exposed,
                total: progs.len(),
                recall: if progs.is_empty() {
                    0.0
                } else {
                    exposed as f64 / progs.len() as f64
                },
            }
        })
        .collect()
}

/// Runs the deterministic scan and returns the report.
///
/// The scan is repeated [`HotpathScale::repeat`] times: counters must
/// replay bit-identically across repetitions (panics otherwise — that
/// determinism is the foundation of the CI gate), and each category
/// keeps its fastest timing.
pub fn run_scan(scale: &HotpathScale) -> Report {
    // A/B knob: `DRFIX_PERF_NOCACHE=1` runs the identical workload with
    // the lock-aware caches off. The logical counters are bit-identical
    // either way (the whole point), so the only difference is
    // wall-clock — a machine-controlled before/after measurement.
    let nocache = std::env::var("DRFIX_PERF_NOCACHE")
        .map(|v| v == "1")
        .unwrap_or(false);
    // Same idea for the shadow-state lifecycle: `DRFIX_PERF_NOGC=1`
    // disables GC + clock reclamation. Logical counters stay
    // bit-identical (pinned by the shadow-GC golden); the lifecycle
    // gauges collapse (reclaimed to zero, peaks up), so never bake a
    // NOGC run into the baseline.
    let nogc = std::env::var("DRFIX_PERF_NOGC")
        .map(|v| v == "1")
        .unwrap_or(false);
    let (_corpus, programs) = workload_programs(scale);
    let policies = workload_policies();

    let mut counters: BTreeMap<String, CounterSet> = BTreeMap::new();
    let mut best_elapsed: BTreeMap<String, f64> = BTreeMap::new();
    let mut case_count: BTreeMap<String, std::collections::BTreeSet<String>> = BTreeMap::new();

    for rep in 0..scale.repeat {
        let mut rep_counters: BTreeMap<String, CounterSet> = BTreeMap::new();
        let mut rep_elapsed: BTreeMap<String, f64> = BTreeMap::new();
        for wp in &programs {
            for policy in &policies {
                let cfg = TestConfig {
                    runs: scale.runs,
                    seed: WORKLOAD_SEED,
                    stop_on_race: false,
                    policy: policy.clone(),
                    vm: govm::VmOptions {
                        sync_epoch_cache: !nocache,
                        shadow_gc: !nogc,
                        ..govm::VmOptions::default()
                    },
                    ..TestConfig::default()
                };
                let t0 = Instant::now();
                let out = run_test_many(&wp.prog, &wp.test, &cfg);
                let dt = t0.elapsed().as_secs_f64();
                rep_counters
                    .entry(wp.category.clone())
                    .or_default()
                    .add_outcome(
                        &out.counters,
                        out.races.len() as u64,
                        u64::from(out.distinct_schedules),
                    );
                *rep_elapsed.entry(wp.category.clone()).or_default() += dt;
                if rep == 0 {
                    case_count
                        .entry(wp.category.clone())
                        .or_default()
                        .insert(wp.id.clone());
                }
            }
        }
        if rep == 0 {
            counters = rep_counters;
            best_elapsed = rep_elapsed;
        } else {
            assert_eq!(
                counters, rep_counters,
                "hot-path counters must replay bit-identically across repetitions"
            );
            for (cat, dt) in rep_elapsed {
                let best = best_elapsed.entry(cat).or_insert(f64::MAX);
                if dt < *best {
                    *best = dt;
                }
            }
        }
    }

    let mut categories: Vec<CategoryReport> = Vec::new();
    let mut total = CategoryReport {
        category: "total".to_owned(),
        ..CategoryReport::default()
    };
    let mut exposure = CategoryReport {
        category: "exposure".to_owned(),
        ..CategoryReport::default()
    };
    for (cat, set) in &counters {
        let elapsed = best_elapsed.get(cat).copied().unwrap_or(0.0);
        let cases = case_count.get(cat).map(|s| s.len()).unwrap_or(0);
        categories.push(CategoryReport {
            category: cat.clone(),
            cases,
            counters: *set,
            elapsed_s: elapsed,
            ips: if elapsed > 0.0 {
                set.vm_steps as f64 / elapsed
            } else {
                0.0
            },
        });
        total.cases += cases;
        total.counters.accumulate(set);
        total.elapsed_s += elapsed;
        if cat != "SyncHeavy" && cat != "LargeHeap" && cat != "Churn" {
            exposure.cases += cases;
            exposure.counters.accumulate(set);
            exposure.elapsed_s += elapsed;
        }
    }
    total.ips = if total.elapsed_s > 0.0 {
        total.counters.vm_steps as f64 / total.elapsed_s
    } else {
        0.0
    };
    exposure.ips = if exposure.elapsed_s > 0.0 {
        exposure.counters.vm_steps as f64 / exposure.elapsed_s
    } else {
        0.0
    };

    let pre = pre_optimization_reference();
    // The speedup claim is only apples-to-apples when this scan executed
    // exactly the instructions the seed tree was measured on; at any
    // other scale (or after a workload-changing edit) it is reported as
    // 0 rather than as a bogus ratio.
    let exposure_speedup =
        if pre.exposure_ips > 0.0 && exposure.counters.vm_steps == pre.exposure_vm_steps {
            exposure.ips / pre.exposure_ips
        } else {
            0.0
        };
    let pr4 = pr4_reference();
    // Same apples-to-apples guard as above: the SyncHeavy ratio is only
    // reported when this scan executed exactly the instructions the
    // PR 4 baseline measured.
    let sync_heavy_cat = categories
        .iter()
        .find(|c| c.category == "SyncHeavy")
        .cloned();
    let sync_heavy_speedup = sync_heavy_cat
        .as_ref()
        .filter(|c| pr4.sync_heavy_ips > 0.0 && c.counters.vm_steps == pr4.sync_heavy_vm_steps)
        .map(|c| c.ips / pr4.sync_heavy_ips)
        .unwrap_or(0.0);

    // Machine-controlled A/B: replay only the sync-heavy arms with the
    // lock-aware caches off, back-to-back in this same process. The
    // instruction stream is bit-identical (pinned by the lock-regime
    // goldens), so the ratio isolates what the caches buy without any
    // cross-run machine noise.
    let (sync_heavy_nocache_ips, sync_heavy_cache_speedup) = if nocache {
        (0.0, 0.0)
    } else {
        let mut best = f64::MAX;
        let mut steps_off = 0u64;
        for _ in 0..scale.repeat {
            let mut elapsed = 0.0;
            steps_off = 0;
            for wp in programs.iter().filter(|wp| wp.category == "SyncHeavy") {
                for policy in &policies {
                    let cfg = TestConfig {
                        runs: scale.runs,
                        seed: WORKLOAD_SEED,
                        stop_on_race: false,
                        policy: policy.clone(),
                        vm: govm::VmOptions {
                            sync_epoch_cache: false,
                            ..govm::VmOptions::default()
                        },
                        ..TestConfig::default()
                    };
                    let t0 = Instant::now();
                    let out = run_test_many(&wp.prog, &wp.test, &cfg);
                    elapsed += t0.elapsed().as_secs_f64();
                    steps_off += out.counters.vm_steps;
                }
            }
            if elapsed < best {
                best = elapsed;
            }
        }
        let off_ips = if best > 0.0 && best < f64::MAX {
            steps_off as f64 / best
        } else {
            0.0
        };
        let ratio = match &sync_heavy_cat {
            Some(c) if off_ips > 0.0 && steps_off == c.counters.vm_steps => c.ips / off_ips,
            _ => 0.0,
        };
        (off_ips, ratio)
    };
    let sampling = measure_sampling_recall(scale);
    let static_gate = measure_static_gate(scale);
    let tournament = measure_tournament(scale);
    let campaign = measure_campaign(scale);
    let tier = measure_tiers(scale);
    Report {
        schema: SCHEMA,
        workload: WorkloadSpec {
            cases: scale.cases,
            runs: scale.runs,
            seed: WORKLOAD_SEED,
            policies: policies.iter().map(|p| p.label()).collect(),
            include_fixes: true,
            sync_heavy_cases: sync_heavy_cases().len(),
            large_heap_cases: scale.heap_cases,
            churn_cases: scale.churn_cases,
            gate_cases: scale.gate_cases,
            tournament_cases: scale.tournament_cases,
            campaign_cases: scale.campaign_cases,
        },
        pre_optimization: pre,
        pr4,
        exposure_speedup_vs_pre_optimization: exposure_speedup,
        sync_heavy_speedup_vs_pr4: sync_heavy_speedup,
        sync_heavy_nocache_ips,
        sync_heavy_cache_speedup,
        sampling,
        static_gate,
        tournament,
        campaign,
        tier,
        exposure,
        total,
        categories,
    }
}

/// One gate violation: which counter drifted, where, and by how much —
/// structured so `perfscan --check` can render a baseline-vs-current
/// diff table instead of a bare boolean.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Aggregation scope (`total`, `exposure`, or a category name) —
    /// empty for workload/schema-level mismatches.
    pub scope: String,
    /// Drifted counter name (empty for workload/schema mismatches).
    pub counter: String,
    /// Baseline value.
    pub baseline: u64,
    /// Current value.
    pub current: u64,
    /// Human-readable message (the whole story for non-counter
    /// violations).
    pub message: String,
}

impl Violation {
    fn structural(message: String) -> Violation {
        Violation {
            scope: String::new(),
            counter: String::new(),
            baseline: 0,
            current: 0,
            message,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

fn check_gauges(
    scope: &str,
    base: &[(&'static str, u64, Direction)],
    cur: &[(&'static str, u64, Direction)],
    out: &mut Vec<Violation>,
) {
    for ((name, b, dir), (_, c, _)) in base.iter().copied().zip(cur.iter().copied()) {
        let bad = match dir {
            Direction::Cost => c as f64 > b as f64 * (1.0 + GATE_TOLERANCE),
            Direction::Benefit => (c as f64) < b as f64 * (1.0 - GATE_TOLERANCE),
            Direction::Exact => c != b,
        };
        if bad {
            let how = match dir {
                Direction::Cost => "rose",
                Direction::Benefit => "fell",
                Direction::Exact => "changed",
            };
            let message = format!(
                "{scope}: {name} {how} {b} -> {c} ({:+.1}%)",
                if b == 0 {
                    f64::INFINITY
                } else {
                    100.0 * (c as f64 - b as f64) / b as f64
                }
            );
            out.push(Violation {
                scope: scope.to_owned(),
                counter: name.to_owned(),
                baseline: b,
                current: c,
                message,
            });
        }
    }
}

fn check_set(scope: &str, base: &CounterSet, cur: &CounterSet, out: &mut Vec<Violation>) {
    check_gauges(scope, &base.gauges(), &cur.gauges(), out);
}

/// Renders violations as a `diff`-style table (baseline vs current per
/// drifted counter, grouped by scope) for the perf-gate failure output.
pub fn render_violations(violations: &[Violation]) -> String {
    let mut out = String::new();
    let (counters, structural): (Vec<_>, Vec<_>) =
        violations.iter().partition(|v| !v.counter.is_empty());
    for v in structural {
        out.push_str(&format!("! {}\n", v.message));
    }
    if !counters.is_empty() {
        out.push_str(&format!(
            "  {:<18} {:<22} {:>14} {:>14} {:>9}\n",
            "scope", "counter", "baseline", "current", "drift"
        ));
        for v in counters {
            let drift = if v.baseline == 0 {
                "+inf".to_owned()
            } else {
                format!(
                    "{:+.1}%",
                    100.0 * (v.current as f64 - v.baseline as f64) / v.baseline as f64
                )
            };
            out.push_str(&format!(
                "- {:<18} {:<22} {:>14} {:>14} {:>9}\n",
                v.scope, v.counter, v.baseline, v.current, drift
            ));
        }
    }
    out
}

/// Diffs `current` against `baseline`; an empty vector means the gate
/// passes. Wall-clock fields are never compared.
pub fn check(baseline: &Report, current: &Report) -> Vec<Violation> {
    let mut out = Vec::new();
    if baseline.schema != current.schema {
        out.push(Violation::structural(format!(
            "schema mismatch: baseline {} vs current {}",
            baseline.schema, current.schema
        )));
        return out;
    }
    if baseline.workload != current.workload {
        out.push(Violation::structural(format!(
            "workload mismatch: baseline {:?} vs current {:?} — regenerate the baseline \
             or unset DRFIX_PERF_*",
            baseline.workload, current.workload
        )));
        return out;
    }
    check_set(
        "total",
        &baseline.total.counters,
        &current.total.counters,
        &mut out,
    );
    check_set(
        "exposure",
        &baseline.exposure.counters,
        &current.exposure.counters,
        &mut out,
    );
    check_gauges(
        "static-gate",
        &baseline.static_gate.gauges(),
        &current.static_gate.gauges(),
        &mut out,
    );
    check_gauges(
        "tournament",
        &baseline.tournament.gauges(),
        &current.tournament.gauges(),
        &mut out,
    );
    check_gauges(
        "campaign",
        &baseline.campaign.gauges(),
        &current.campaign.gauges(),
        &mut out,
    );
    check_gauges(
        "tier",
        &baseline.tier.gauges(),
        &current.tier.gauges(),
        &mut out,
    );
    let cur_by_cat: BTreeMap<&str, &CategoryReport> = current
        .categories
        .iter()
        .map(|c| (c.category.as_str(), c))
        .collect();
    for base_cat in &baseline.categories {
        match cur_by_cat.get(base_cat.category.as_str()) {
            Some(cur_cat) => check_set(
                &base_cat.category,
                &base_cat.counters,
                &cur_cat.counters,
                &mut out,
            ),
            None => out.push(Violation::structural(format!(
                "category `{}` missing from the current scan",
                base_cat.category
            ))),
        }
    }
    for cur_cat in &current.categories {
        if !baseline
            .categories
            .iter()
            .any(|b| b.category == cur_cat.category)
        {
            out.push(Violation::structural(format!(
                "category `{}` absent from the baseline",
                cur_cat.category
            )));
        }
    }
    out
}

/// Renders the per-category table for terminal output.
pub fn render_table(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>5} {:>12} {:>10} {:>9} {:>9} {:>10} {:>10} {:>12}\n",
        "category", "cases", "vm_steps", "events", "fast%", "cache%", "snaps", "joins", "ips"
    ));
    for cat in report
        .categories
        .iter()
        .chain([&report.exposure, &report.total])
    {
        let c = &cat.counters;
        out.push_str(&format!(
            "{:<22} {:>5} {:>12} {:>10} {:>8.1}% {:>8.1}% {:>10} {:>10} {:>12.0}\n",
            cat.category,
            cat.cases,
            c.vm_steps,
            c.det_events,
            100.0 * c.fast_hit_rate(),
            100.0 * (c.stackfree_hit_rate() - c.fast_hit_rate()),
            c.stack_snapshots,
            c.clock_joins,
            cat.ips,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> HotpathScale {
        HotpathScale {
            cases: 7,
            runs: 4,
            repeat: 2,
            heap_cases: 3,
            churn_cases: 2,
            gate_cases: 4,
            tournament_cases: 6,
            campaign_cases: 18,
        }
    }

    #[test]
    fn scan_is_deterministic_and_covers_all_categories() {
        let a = run_scan(&tiny_scale());
        let b = run_scan(&tiny_scale());
        assert_eq!(a.total.counters, b.total.counters);
        assert_eq!(
            a.categories.len(),
            10,
            "Table 3 categories + SyncHeavy + LargeHeap + Churn"
        );
        assert!(a.total.counters.vm_steps > 0);
        // The tiny test scale is dominated by the sync-heavy programs
        // (every lock release advances the epoch, so few same-epoch
        // repeats); the full workload's ~60% hit rate is pinned by the
        // checked-in BENCH_hotpath.json baseline instead.
        assert!(
            a.total.counters.fast_hit_rate() > 0.05,
            "same-epoch fast path vanished: {:?}",
            a.total.counters
        );
        // The lock-aware cache must be carrying the sync-heavy arms…
        let sync_cat = a
            .categories
            .iter()
            .find(|c| c.category == "SyncHeavy")
            .expect("SyncHeavy category");
        assert!(
            sync_cat.counters.read_sync_hits + sync_cat.counters.write_sync_hits > 0,
            "owner cache never engaged: {:?}",
            sync_cat.counters
        );
        assert!(sync_cat.counters.sync_epoch_hits > 0);
        // …and the large-heap arms are clean, busy, and cache-assisted.
        let heap = a
            .categories
            .iter()
            .find(|c| c.category == "LargeHeap")
            .expect("LargeHeap category");
        assert_eq!(heap.counters.races, 0, "large-heap arms must be clean");
        assert!(heap.counters.det_events > 0);
        assert!(heap.counters.stack_cache_hits > 0);
        // …and the churn arms are clean with the lifecycle engaged:
        // exited workers' clock slots get reused generation after
        // generation, so width stays O(live), far below O(spawned).
        let churn = a
            .categories
            .iter()
            .find(|c| c.category == "Churn")
            .expect("Churn category");
        assert_eq!(churn.counters.races, 0, "churn arms must be clean");
        assert!(
            churn.counters.clock_slots_reclaimed > 0,
            "goroutine exit never recycled a clock slot: {:?}",
            churn.counters
        );
        assert!(churn.counters.peak_shadow_bytes > 0);
        assert!(
            churn.counters.peak_clock_width < churn.counters.clock_slots_reclaimed,
            "clock width should stay far below goroutine turnover: {:?}",
            churn.counters
        );
        // Sampling recall: deterministic, total at sample_mod == 1,
        // and a fraction of the corpus at every granularity.
        assert_eq!(a.sampling, b.sampling);
        assert_eq!(a.sampling.len(), SAMPLING_MODS.len());
        assert_eq!(a.sampling[0].sample_mod, 1);
        assert!(
            (a.sampling[0].recall - 1.0).abs() < f64::EPSILON,
            "full tracking must expose every planted race: {:?}",
            a.sampling
        );
        for s in &a.sampling {
            assert_eq!(s.total, tiny_scale().cases);
            assert!((0.0..=1.0).contains(&s.recall), "{:?}", s);
        }
        // Static gate: deterministic, rejecting at least one botched
        // candidate without ever flipping a survivor's verdict, and the
        // instruction ledger must balance.
        assert_eq!(a.static_gate, b.static_gate);
        assert!(a.static_gate.candidates > 0, "{:?}", a.static_gate);
        assert!(
            a.static_gate.candidates_rejected_static > 0,
            "gate never fired on the botched candidates: {:?}",
            a.static_gate
        );
        assert_eq!(
            a.static_gate.verdict_mismatches, 0,
            "gate changed a surviving candidate's verdict: {:?}",
            a.static_gate
        );
        assert_eq!(
            a.static_gate.validation_vm_steps_gated + a.static_gate.validation_instrs_saved,
            a.static_gate.validation_vm_steps_ungated,
            "{:?}",
            a.static_gate
        );
        assert!(
            a.static_gate.validation_instrs_saved > 0,
            "rejections must translate into schedules not run: {:?}",
            a.static_gate
        );
        // Tournament: deterministic, fixing at least what single-path
        // fixes, with the repair loop engaged and never a schedule run
        // on an all-statically-rejected roster.
        assert_eq!(a.tournament, b.tournament);
        assert!(a.tournament.candidates > 0, "{:?}", a.tournament);
        assert!(
            a.tournament.cases_fixed >= a.tournament.cases_fixed_single_path,
            "superset invariant broken: {:?}",
            a.tournament
        );
        assert!(
            a.tournament.repair_iters > 0,
            "repair loop never engaged: {:?}",
            a.tournament
        );
        assert_eq!(
            a.tournament.static_only_vm_steps, 0,
            "lint-rejected rosters burned VM steps: {:?}",
            a.tournament
        );
        // Tier: the register tier must be logically invisible (zero
        // mismatching campaigns), physically engaged (fused ops), and
        // running the exact same instruction stream as the stack tier.
        assert_eq!(a.tier.gauges(), b.tier.gauges());
        assert_eq!(
            a.tier.tier_mismatches, 0,
            "register tier diverged from the stack tier: {:?}",
            a.tier
        );
        assert!(
            a.tier.reg_fused_ops > 0,
            "register tier executed no fused superinstructions: {:?}",
            a.tier
        );
        let sync_heavy = a
            .categories
            .iter()
            .find(|c| c.category == "SyncHeavy")
            .expect("SyncHeavy category");
        assert_eq!(
            a.tier.sync_heavy_vm_steps, sync_heavy.counters.vm_steps,
            "tier arm ran a different SyncHeavy workload than the scan"
        );
        // Campaign: the serial orchestration counters and digest replay
        // bit-identically, the pipelined cross-check agrees, and the
        // serial lone worker's shard walk is exactly accounted for.
        assert_eq!(a.campaign.gauges(), b.campaign.gauges());
        assert_eq!(a.campaign.folds, a.campaign.cases);
        assert_eq!(a.campaign.queue_pops, a.campaign.cases);
        assert_eq!(
            a.campaign.digest_mismatches, 0,
            "pipelined campaign diverged from the serial reference: {:?}",
            a.campaign
        );
        assert!(a.campaign.raced > 0, "{:?}", a.campaign);
        assert!(a.campaign.checkpoints > 0, "{:?}", a.campaign);
        assert!(a.campaign.peak_resident_case_bytes > 0, "{:?}", a.campaign);
        assert!(check(&a, &b).is_empty());
    }

    #[test]
    fn gate_flags_cost_benefit_and_exact_drift() {
        let base = run_scan(&tiny_scale());
        let mut cur = base.clone();
        cur.total.counters.vm_steps = base.total.counters.vm_steps * 2;
        cur.total.counters.read_fast_hits = 0;
        cur.total.counters.races += 1;
        cur.static_gate.candidates_rejected_static += 1;
        cur.tournament.cases_fixed += 1;
        cur.campaign.digest ^= 1;
        cur.tier.tier_mismatches += 1;
        cur.tier.reg_fused_ops = 0;
        let violations = check(&base, &cur);
        let text = violations
            .iter()
            .map(|v| v.message.clone())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("vm_steps rose"), "{text}");
        assert!(text.contains("read_fast_hits fell"), "{text}");
        assert!(text.contains("races changed"), "{text}");
        assert!(
            text.contains("candidates_rejected_static changed"),
            "{text}"
        );
        assert!(text.contains("cases_fixed changed"), "{text}");
        assert!(text.contains("digest changed"), "{text}");
        assert!(text.contains("tier_mismatches changed"), "{text}");
        assert!(text.contains("reg_fused_ops changed"), "{text}");
        let table = render_violations(&violations);
        assert!(table.contains("vm_steps"), "{table}");
        assert!(table.contains("baseline"), "{table}");
        // Within-tolerance drift passes.
        let mut small = base.clone();
        small.total.counters.vm_steps += base.total.counters.vm_steps / 20;
        assert!(check(&base, &small).is_empty());
    }

    #[test]
    fn gate_refuses_mismatched_workloads() {
        let base = run_scan(&tiny_scale());
        let mut cur = base.clone();
        cur.workload.runs += 1;
        let v = check(&base, &cur);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("workload mismatch"));
        assert!(
            render_violations(&v).contains("workload mismatch"),
            "structural violations must survive the diff rendering"
        );
    }
}
