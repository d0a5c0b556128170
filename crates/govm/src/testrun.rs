//! Test harness: the `go test -race -count=N` substitute.
//!
//! Dr.Fix's validator (§4.4.1) builds the patched package and runs each
//! test many times, checking that the targeted race (identified by its
//! stable bug hash) no longer appears. [`run_test_many`] is that loop:
//! one compiled program, N seeded schedules — explored by the campaign's
//! [`SchedulePolicy`], deduplicated by schedule signature, and bounded
//! by an optional campaign-wide instruction budget. Every run of a
//! campaign executes on one [`TestVm`], reset between runs, and a run
//! whose interleaving the campaign already executed is replayed from
//! the campaign's schedule memo instead.

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
    /// *consecutive* runs whose schedule signature was already explored.
    /// A heuristic: the signature folds context switches only, so a run
    /// with a known signature can still differ from every earlier run
    /// where the program draws from the run's rng (`select` order,
    /// timer jitter) and surface a new outcome.
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
/// [`StopReason::DedupSaturated`] exit means new schedule signatures
/// stopped appearing (the switch sequences look exhausted, though runs
/// that share a signature can still differ in their `select` and timer
/// draws), while [`StopReason::BudgetExhausted`] means the campaign ran
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
///
/// Equality ignores [`TestOutcome::replayed`], a gauge of how the
/// outcome was computed, not of what it is.
#[derive(Debug, Clone)]
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
    /// Runs answered from the campaign's schedule memo instead of the
    /// VM (each is also counted in `runs` and `duplicate_schedules`).
    pub replayed: u32,
}

impl PartialEq for TestOutcome {
    fn eq(&self, other: &Self) -> bool {
        // Destructured without `..`, so a new field cannot be forgotten.
        let TestOutcome {
            races,
            error,
            test_failures,
            runs,
            steps,
            distinct_schedules,
            duplicate_schedules,
            stop,
            counters,
            replayed: _,
        } = self;
        *races == other.races
            && *error == other.error
            && *test_failures == other.test_failures
            && *runs == other.runs
            && *steps == other.steps
            && *distinct_schedules == other.distinct_schedules
            && *duplicate_schedules == other.duplicate_schedules
            && *stop == other.stop
            && *counters == other.counters
    }
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
    /// With `record` set, the campaign's schedule memo records the run.
    fn run_new_races(
        &mut self,
        test: &str,
        opts: VmOptions,
        record: bool,
        seen: &mut HashSet<u64>,
        races: &mut Vec<RaceReport>,
    ) -> RunResult {
        if record {
            self.vm.memo.record();
        }
        let error = self.execute(test, opts);
        for raw in self.vm.det.races() {
            if seen.insert(self.vm.race_hash(raw, &mut self.names)) {
                races.push(self.vm.race_report(raw));
            }
        }
        let r = self.vm.finish(error, Vec::new());
        self.vm.memo.finish(&r);
        r
    }

    /// The campaign run under `opts`, replayed from the schedule memo
    /// when an earlier run of this campaign executed its interleaving;
    /// `None` when it must execute.
    fn replay(&mut self, opts: &VmOptions) -> Option<RunResult> {
        let has_init = self.vm.prog.init_func.is_some();
        self.vm.memo.replay(opts, has_init)
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
/// once `cfg.dedup_streak` consecutive runs repeat already-seen
/// signatures, or once `cfg.max_total_steps` instructions have been
/// spent — both default to off. A repeated signature is a heuristic
/// for saturation, not a proof: runs with equal signatures can still
/// differ where the program draws from the run rng.
///
/// A run whose context-switch sequence an earlier run of the campaign
/// executed is replayed from the campaign's schedule memo instead of
/// re-executed: the memo keys on context switches and stops wherever
/// the program draws from the run rng or arms a timer, so the outcome
/// is identical to executing every run ([`TestOutcome::replayed`]
/// counts the replays).
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
    let mut replayed = 0u32;
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
        // A replayed run's races, error and failures were reported by
        // the run that recorded it; only its cost is added again.
        let r = match tvm.replay(&vmo) {
            Some(r) => {
                replayed += 1;
                r
            }
            None => {
                let record = i + 1 < cfg.runs;
                tvm.run_new_races(test, vmo, record, &mut seen, &mut races)
            }
        };
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
        replayed,
    }
}
