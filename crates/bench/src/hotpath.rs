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
//! - **Wall-clock throughput** (instructions/sec): reported for humans,
//!   never gated (CI machines differ).
//!
//! [`run_scan`] executes the scan ([`HotpathScale::repeat`] times,
//! asserting the counters replay bit-identically and keeping the
//! fastest timing); [`check`] diffs a fresh scan against a baseline
//! report and returns the violations — `perfscan --check` is the CI
//! `perf-gate` entry point.

use corpus::CorpusConfig;
use govm::{
    compile_sources, run_test_many, CompileOptions, RunCounters, SchedulePolicy, TestConfig,
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
/// `sync_epoch_hits`, `stack_cache_hits`) and the LargeHeap workload
/// family.
///
/// v3: shadow-state lifecycle counters (`states_collected`,
/// `clock_slots_reclaimed`, `peak_shadow_bytes`, `peak_clock_width`)
/// and the Churn workload family (generational goroutine turnover — the
/// family the lifecycle exists for).
///
/// v4–v6: static-gate, tournament and campaign sections (dropped in v8).
///
/// v7: the tier section (dropped in v9): the SyncHeavy arms replayed
/// on the stack and register interpreter tiers, with mismatches and
/// fused-op counts exact-gated.
///
/// v8: the report gates only the VM and detector cost counters (per
/// category, `exposure`, `total`) and the tier section. Dropped: the
/// fixed wall-clock reference blocks with their speedup ratios, the
/// in-process cache-off A/B, the sampling-recall section, and the
/// static-gate, tournament and campaign sections, whose contracts
/// tier-1 tests pin exactly.
///
/// v9: the tier section is dropped with the register tier it gated.
pub const SCHEMA: u32 = 9;

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
}

impl Default for HotpathScale {
    fn default() -> Self {
        HotpathScale {
            cases: 28,
            runs: 24,
            repeat: 5,
            heap_cases: 3,
            churn_cases: 3,
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
}

/// The `BENCH_hotpath.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Schema version.
    pub schema: u32,
    /// Workload parameters.
    pub workload: WorkloadSpec,
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

fn workload_programs(scale: &HotpathScale) -> Vec<WorkloadProgram> {
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
    programs
}

/// Runs the deterministic scan and returns the report.
///
/// The scan is repeated [`HotpathScale::repeat`] times: counters must
/// replay bit-identically across repetitions (panics otherwise — that
/// determinism is the foundation of the CI gate), and each category
/// keeps its fastest timing.
pub fn run_scan(scale: &HotpathScale) -> Report {
    let programs = workload_programs(scale);
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
        },
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

fn check_set(scope: &str, base: &CounterSet, cur: &CounterSet, out: &mut Vec<Violation>) {
    for ((name, b, dir), (_, c, _)) in base.gauges().into_iter().zip(cur.gauges()) {
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
        assert!(check(&a, &b).is_empty());
    }

    #[test]
    fn gate_flags_cost_benefit_and_exact_drift() {
        let base = run_scan(&tiny_scale());
        let mut cur = base.clone();
        cur.total.counters.vm_steps = base.total.counters.vm_steps * 2;
        cur.total.counters.read_fast_hits = 0;
        cur.total.counters.races += 1;
        let violations = check(&base, &cur);
        let text = violations
            .iter()
            .map(|v| v.message.clone())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("vm_steps rose"), "{text}");
        assert!(text.contains("read_fast_hits fell"), "{text}");
        assert!(text.contains("races changed"), "{text}");
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
