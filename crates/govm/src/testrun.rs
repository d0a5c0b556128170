//! Test harness: the `go test -race -count=N` substitute.
//!
//! Dr.Fix's validator (§4.4.1) builds the patched package and runs each
//! test many times, checking that the targeted race (identified by its
//! stable bug hash) no longer appears. [`run_test_many`] is that loop:
//! one compiled program, N seeded schedules — explored by the campaign's
//! [`SchedulePolicy`], deduplicated by schedule signature, and bounded
//! by an optional campaign-wide instruction budget. Every run of a
//! campaign executes on one [`TestVm`], reset between runs.

use crate::compile::{compile_sources, CompileOptions};
use crate::sched::{derive_seed, SchedulePolicy};
use crate::value::Value;
use crate::vm::{RunCounters, RunError, RunResult, Vm, VmOptions};
use crate::Program;
use racedet::RaceReport;
use std::collections::HashSet;
use std::rc::Rc;

/// Configuration for a test campaign.
#[derive(Debug, Clone)]
pub struct TestConfig {
    /// Number of seeded schedules to run.
    pub runs: u32,
    /// Base seed; run `i` uses [`derive_seed`]`(seed, i)`.
    pub seed: u64,
    /// Per-run VM options (seed is overridden per run; the campaign
    /// [`policy`](TestConfig::policy) overrides `vm.policy`).
    pub vm: VmOptions,
    /// Stop after the first run that exposes a race (detection mode) —
    /// validation mode runs all schedules.
    pub stop_on_race: bool,
    /// Schedule-exploration policy for every run of the campaign.
    pub policy: SchedulePolicy,
    /// Campaign-wide instruction budget: once the summed steps of the
    /// completed runs reach it, the campaign stops early.
    pub max_total_steps: Option<u64>,
    /// Early exit on schedule saturation: stop after this many
    /// *consecutive* runs whose schedule signature was already explored
    /// (a replayed interleaving cannot surface anything new).
    pub dedup_streak: Option<u32>,
}

impl Default for TestConfig {
    fn default() -> Self {
        TestConfig {
            runs: 24,
            seed: 0,
            vm: VmOptions::default(),
            stop_on_race: false,
            policy: SchedulePolicy::Random,
            max_total_steps: None,
            dedup_streak: None,
        }
    }
}

/// Why a campaign stopped executing schedules.
///
/// Validation-policy decisions hinge on the distinction: a
/// [`StopReason::DedupSaturated`] exit means the schedule space was
/// exhausted (replaying more duplicates could not surface anything
/// new), while [`StopReason::BudgetExhausted`] means the campaign ran
/// out of instructions with schedules still unexplored — a weaker
/// "clean" verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StopReason {
    /// Every configured run executed.
    Completed,
    /// `stop_on_race` was set and a race surfaced.
    RaceExposed,
    /// `dedup_streak` consecutive runs replayed already-explored
    /// schedule signatures.
    DedupSaturated,
    /// The campaign-wide `max_total_steps` instruction budget ran out
    /// before the configured runs finished.
    BudgetExhausted,
}

/// Aggregate outcome of running one test under many schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct TestOutcome {
    /// Distinct races observed across all runs (deduped by bug hash).
    pub races: Vec<RaceReport>,
    /// First abnormal run error, if any.
    pub error: Option<RunError>,
    /// Test failures collected across runs (deduped).
    pub test_failures: Vec<String>,
    /// Schedules executed.
    pub runs: u32,
    /// Total instructions executed.
    pub steps: u64,
    /// Distinct schedule signatures among the executed runs.
    pub distinct_schedules: u32,
    /// Runs whose schedule signature had already been explored.
    pub duplicate_schedules: u32,
    /// Why the campaign stopped (early exits are distinguishable from
    /// completing all runs and from each other).
    pub stop: StopReason,
    /// Deterministic hot-path counters summed over the executed runs.
    pub counters: RunCounters,
}

impl TestOutcome {
    /// `true` when no race, error or test failure was observed.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.error.is_none() && self.test_failures.is_empty()
    }

    /// `true` when a race with the given stable hash was observed.
    pub fn has_bug(&self, bug_hash: &str) -> bool {
        self.races.iter().any(|r| r.bug_hash() == bug_hash)
    }
}

/// Runs `test` once under one seed with the default (uniform-random)
/// policy.
pub fn run_test(prog: &Program, test: &str, seed: u64) -> RunResult {
    run_test_with(
        prog,
        test,
        VmOptions {
            seed,
            ..VmOptions::default()
        },
    )
}

/// Runs `test` once under explicit VM options (seed and policy): a
/// campaign of one run.
pub fn run_test_with(prog: &Program, test: &str, opts: VmOptions) -> RunResult {
    TestVm::new(prog).run(test, opts)
}

/// One program's test VM, built once and reset between runs: what a
/// schedule campaign executes on.
///
/// The heap, the goroutine table and the race detector are built once;
/// each run resets them, keeping their capacity and recycling per-run
/// buffers (frames, operand stacks, locals, creation stacks, detector
/// clocks, shadow pages and record stacks). Every run is bit-identical
/// to the same run on a freshly built VM — reports, counters, gauges,
/// schedule signature and output. Retained memory is bounded by the
/// largest run so far and is freed when the `TestVm` is dropped.
pub struct TestVm<'p> {
    vm: Vm<'p>,
    /// `testing.T`'s type name.
    t_type: Rc<str>,
    /// `testing.T`'s field names with their ids, interned once.
    t_fields: [(Rc<str>, u32); 3],
    /// The name of the test run last, as a string value.
    test_name: Rc<str>,
    /// Scratch for race hashing.
    names: Vec<&'p str>,
}

impl<'p> TestVm<'p> {
    /// Builds the VM for `prog`.
    pub fn new(prog: &'p Program) -> Self {
        let mut vm = Vm::new(prog, VmOptions::default());
        // A fresh VM interns these first too (its first act is building
        // the root `testing.T`), so keeping them across resets leaves
        // every name id as a fresh VM would assign it.
        let t_fields = ["name", "$parent", "$signaled"].map(|f| {
            let id = vm.intern(f);
            (vm.name(id).clone(), id)
        });
        vm.keep_names();
        TestVm {
            vm,
            t_type: Rc::from("testing.T"),
            t_fields,
            test_name: Rc::from(""),
            names: Vec::new(),
        }
    }

    /// Runs `test` once under `opts`, with every race reported.
    pub fn run(&mut self, test: &str, opts: VmOptions) -> RunResult {
        let error = self.execute(test, opts);
        self.vm.finish_reporting_all(error)
    }

    /// [`TestVm::run`] for a campaign: resolves to a report only the
    /// races whose bug hash is not in `seen`, appending those to `races`
    /// (and their hashes to `seen`). The result's own `races` is empty.
    fn run_new_races(
        &mut self,
        test: &str,
        opts: VmOptions,
        seen: &mut HashSet<u64>,
        races: &mut Vec<RaceReport>,
    ) -> RunResult {
        let error = self.execute(test, opts);
        for raw in self.vm.det.races() {
            if seen.insert(self.vm.race_hash(raw, &mut self.names)) {
                races.push(self.vm.race_report(raw));
            }
        }
        self.vm.finish(error, Vec::new())
    }

    /// Resets the VM to `opts` and runs `test` with a root `testing.T`.
    fn execute(&mut self, test: &str, opts: VmOptions) -> Option<RunError> {
        self.vm.reset(opts);
        if *self.test_name != *test {
            self.test_name = Rc::from(test);
        }
        let [(name, name_id), (parent, parent_id), (signaled, signaled_id)] = &self.t_fields;
        // A root testing.T with no parent.
        let t = self.vm.heap.alloc_struct_named(
            self.t_type.clone(),
            [
                (name.clone(), Value::Str(self.test_name.clone()), *name_id),
                (parent.clone(), Value::Int(-1), *parent_id),
                (signaled.clone(), Value::Bool(true), *signaled_id),
            ],
        );
        let mut args = self.vm.arg_buf();
        args.push(t);
        self.vm.execute(test, args)
    }
}

/// Runs `test` under `cfg.runs` seeded schedules, aggregating results.
///
/// Each run's schedule signature is tracked: a campaign can stop early
/// once `cfg.dedup_streak` consecutive runs replay already-explored
/// interleavings, or once `cfg.max_total_steps` instructions have been
/// spent — both default to off.
pub fn run_test_many(prog: &Program, test: &str, cfg: &TestConfig) -> TestOutcome {
    let mut races: Vec<RaceReport> = Vec::new();
    let mut seen = HashSet::new();
    let mut sigs = HashSet::new();
    let mut error = None;
    let mut failures: Vec<String> = Vec::new();
    let mut steps = 0;
    let mut executed = 0;
    let mut distinct = 0u32;
    let mut duplicates = 0u32;
    let mut dup_streak = 0u32;
    let mut stop = StopReason::Completed;
    let mut counters = RunCounters::default();
    let mut tvm = TestVm::new(prog);
    for i in 0..cfg.runs {
        // The budget never cancels the first run: a campaign that
        // executes zero schedules would report vacuously clean, which a
        // validator would misread as "race gone".
        if let Some(budget) = cfg.max_total_steps {
            if executed > 0 && steps >= budget {
                stop = StopReason::BudgetExhausted;
                break;
            }
        }
        let mut vmo = cfg.vm.clone();
        vmo.seed = derive_seed(cfg.seed, i as u64);
        vmo.policy = cfg.policy.clone();
        let r = tvm.run_new_races(test, vmo, &mut seen, &mut races);
        executed += 1;
        steps += r.steps;
        counters.accumulate(&r.counters);
        // The saturation streak counts *consecutive* replays: any novel
        // signature resets it to zero, so a campaign only exits early
        // after `dedup_streak` duplicates in a row with nothing new in
        // between.
        if sigs.insert(r.schedule_sig) {
            distinct += 1;
            dup_streak = 0;
        } else {
            duplicates += 1;
            dup_streak += 1;
        }
        for f in r.test_failures {
            if !failures.contains(&f) {
                failures.push(f);
            }
        }
        if error.is_none() {
            error = r.error;
        }
        if cfg.stop_on_race && !races.is_empty() {
            stop = StopReason::RaceExposed;
            break;
        }
        if let Some(k) = cfg.dedup_streak {
            if k > 0 && dup_streak >= k {
                stop = StopReason::DedupSaturated;
                break;
            }
        }
    }
    TestOutcome {
        races,
        error,
        test_failures: failures,
        runs: executed,
        steps,
        distinct_schedules: distinct,
        duplicate_schedules: duplicates,
        stop,
        counters,
    }
}

/// Compiles sources and runs every `TestXxx` function under `cfg`.
///
/// # Errors
///
/// Returns the compile diagnostic if the package does not build.
pub fn compile_and_test_all(
    sources: &[(String, String)],
    copts: &CompileOptions,
    cfg: &TestConfig,
) -> Result<Vec<(String, TestOutcome)>, golite::Diag> {
    let prog = compile_sources(sources, copts)?;
    let mut out = Vec::new();
    for test in prog.test_funcs() {
        let o = run_test_many(&prog, &test, cfg);
        out.push((test, o));
    }
    Ok(out)
}
