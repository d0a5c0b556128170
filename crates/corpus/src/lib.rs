//! `corpus` — the workload generator of the Dr.Fix reproduction.
//!
//! The paper evaluates on 403 reproducible data races from Uber's
//! monorepo (plus 404 in deployment) and retrieves examples from a
//! curated database of 272 past fixes. This crate synthesises both
//! populations: seeded racy Go-subset programs in exactly the Table 3
//! race categories, wrapped in randomized business-logic noise, plus the
//! Table 5 "hard" cases the tool cannot fix (races spanning a third
//! file, fixes that would remove parallelism, …). Every fixable case
//! ships with its ground-truth human fix, used to build the example
//! database and to compare fix sizes (Table 7).
//!
//! # Example
//!
//! ```
//! use corpus::{generate_eval_corpus, CorpusConfig};
//!
//! let cases = generate_eval_corpus(&CorpusConfig { eval_cases: 10, ..CorpusConfig::default() });
//! assert_eq!(cases.len(), 10);
//! assert!(cases.iter().any(|c| c.fixable));
//! ```

#![warn(missing_docs)]

pub mod noise;
pub mod stream;
pub mod templates;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
pub use synthllm::RaceCategory;

/// The unfixed-race categories of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HardCategory {
    /// Requires changes across more than two files (21%).
    MoreThanTwoFiles,
    /// The only fix changes/removes parallelism (19%).
    RemoveParallelism,
    /// Needs business-logic changes (15%).
    BusinessLogic,
    /// The failing test cannot be isolated (10%).
    IsolateTest,
    /// The race is in external code (10%).
    External,
    /// Requires a large refactoring (6%).
    LargeRefactoring,
    /// Miscellaneous unique challenges (6%).
    Others,
    /// Requires deep copies (5%).
    DeepCopy,
    /// A singleton needs redesign (4%).
    Singleton,
    /// Non-trivial even for experts (4%).
    NonTrivialExpert,
}

impl HardCategory {
    /// Display name matching Table 5.
    pub fn display(&self) -> &'static str {
        match self {
            HardCategory::MoreThanTwoFiles => "More than 2 File Changes",
            HardCategory::RemoveParallelism => "Change/Reduce/Remove Parallelism",
            HardCategory::BusinessLogic => "Change the Business Logic",
            HardCategory::IsolateTest => "Unable to Isolate the Failing Test",
            HardCategory::External => "External",
            HardCategory::LargeRefactoring => "Large Code Refactoring",
            HardCategory::Others => "Others",
            HardCategory::DeepCopy => "Using Deep Copy",
            HardCategory::Singleton => "Singleton Pattern",
            HardCategory::NonTrivialExpert => "Non-trivial Even for Experts",
        }
    }

    /// Table 5 order.
    pub fn all() -> &'static [HardCategory] {
        &[
            HardCategory::MoreThanTwoFiles,
            HardCategory::RemoveParallelism,
            HardCategory::BusinessLogic,
            HardCategory::IsolateTest,
            HardCategory::External,
            HardCategory::LargeRefactoring,
            HardCategory::Others,
            HardCategory::DeepCopy,
            HardCategory::Singleton,
            HardCategory::NonTrivialExpert,
        ]
    }
}

/// One synthetic race case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RaceCase {
    /// Stable id, e.g. `race-0042`.
    pub id: String,
    /// Table 3 category of the planted race.
    pub category: RaceCategory,
    /// Set for Table 5 cases the pipeline is not expected to fix.
    pub hard: Option<HardCategory>,
    /// Whether the pipeline is expected to be able to fix this
    /// (hard-but-strategy-fixable cases are `true` with `hard` set).
    pub fixable: bool,
    /// Whether the fix is only reachable from the LCA location (RQ2.5).
    pub lca_only: bool,
    /// The racy source files `(name, content)` — at most 2 visible to the
    /// pipeline; hard multi-file cases carry a third.
    pub files: Vec<(String, String)>,
    /// The test function exercising the race.
    pub test: String,
    /// The ground-truth (human) fix, when one exists.
    pub human_fix: Option<Vec<(String, String)>>,
}

impl RaceCase {
    /// Lines of code across all racy files.
    pub fn loc(&self) -> usize {
        self.files.iter().map(|(_, s)| s.lines().count()).sum()
    }

    /// Unified-diff-style changed-line count between racy and fixed
    /// versions (Table 7's LoC metric).
    pub fn human_fix_loc(&self) -> Option<usize> {
        let fix = self.human_fix.as_ref()?;
        let mut changed = 0;
        for (name, fixed) in fix {
            let orig = self
                .files
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.as_str())
                .unwrap_or("");
            changed += diff_lines(orig, fixed);
        }
        Some(changed)
    }
}

/// Counts changed lines between two texts (symmetric difference of line
/// multisets — a cheap but stable proxy for diff size).
///
/// Lines the two texts share at the front and at the back cancel in the
/// multiset difference, so only the differing middle is counted.
pub fn diff_lines(a: &str, b: &str) -> usize {
    use std::collections::HashMap;
    let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let head = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[head..], &b[head..]);
    let tail = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - tail], &b[..b.len() - tail]);
    let mut counts: HashMap<&str, i64> = HashMap::new();
    for &l in a {
        *counts.entry(l).or_default() += 1;
    }
    for &l in b {
        *counts.entry(l).or_default() -= 1;
    }
    counts.values().map(|v| v.unsigned_abs() as usize).sum()
}

/// Corpus-generation configuration.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of evaluation cases (the paper reproduces 403).
    pub eval_cases: usize,
    /// Number of curated example-database pairs (the paper uses 272).
    pub db_pairs: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            eval_cases: 403,
            db_pairs: 272,
            seed: 0xD0F1,
        }
    }
}

/// A clean performance-workload program: no planted race, just a
/// deterministic source tree with a named test entry point.
///
/// The LargeHeap family is made of these — map/slice-heavy programs
/// with working sets of hundreds of tracked cells, generated by
/// [`generate_large_heap_corpus`] — campaigned exactly like race cases
/// but expected to come back clean.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfCase {
    /// Stable id, e.g. `heap-slice-00`.
    pub id: String,
    /// Source files `(name, content)`.
    pub files: Vec<(String, String)>,
    /// The test function driving the workload.
    pub test: String,
}

/// A curated example-database pair (§4.1): the racy code and its
/// accepted fix, labelled with its category for bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DbPair {
    /// The racy code (single file).
    pub buggy: String,
    /// The accepted fix.
    pub fixed: String,
    /// The racy variable (used for skeletonization).
    pub racy_var: String,
    /// Category label (Table 3's VectorDB column).
    pub category: RaceCategory,
}

/// Builds the evaluation corpus: `eval_cases` races distributed so that
/// the *fixable* population follows Table 3 and the *hard* population
/// follows Table 5 (roughly 34% of the total, matching the paper's 66%
/// ceiling).
pub fn generate_eval_corpus(cfg: &CorpusConfig) -> Vec<RaceCase> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let total = cfg.eval_cases;
    // 34.2% hard (138/403 in the paper).
    let hard_total = (total as f64 * 0.342).round() as usize;
    let fixable_total = total - hard_total;

    // Table 3 proportions over the fixable pool.
    let fixable_quota: Vec<(RaceCategory, usize)> = distribute(
        fixable_total,
        &[
            (RaceCategory::CaptureByReference, 0.41),
            (RaceCategory::MissingSync, 0.26),
            (RaceCategory::ParallelTest, 0.13),
            (RaceCategory::LoopVarCapture, 0.06),
            (RaceCategory::ConcurrentMap, 0.05),
            (RaceCategory::ConcurrentSlice, 0.05),
            (RaceCategory::Other, 0.04),
        ],
    );

    // Table 5 proportions over the hard pool.
    let hard_quota: Vec<(HardCategory, usize)> = distribute(
        hard_total,
        &[
            (HardCategory::MoreThanTwoFiles, 0.21),
            (HardCategory::RemoveParallelism, 0.19),
            (HardCategory::BusinessLogic, 0.15),
            (HardCategory::IsolateTest, 0.10),
            (HardCategory::External, 0.10),
            (HardCategory::LargeRefactoring, 0.06),
            (HardCategory::Others, 0.06),
            (HardCategory::DeepCopy, 0.05),
            (HardCategory::Singleton, 0.04),
            (HardCategory::NonTrivialExpert, 0.04),
        ],
    );

    let mut cases = Vec::with_capacity(total);
    let mut idx = 0;
    for (cat, n) in fixable_quota {
        for _ in 0..n {
            let mut case = templates::fixable_case(&mut rng, cat, idx);
            case.id = format!("race-{idx:04}");
            cases.push(case);
            idx += 1;
        }
    }
    for (hcat, n) in hard_quota {
        for _ in 0..n {
            let mut case = templates::hard_case(&mut rng, hcat, idx);
            case.id = format!("race-{idx:04}");
            cases.push(case);
            idx += 1;
        }
    }
    cases
}

/// Builds the ordering-sensitive exposure corpus: `eval_cases` races
/// distributed round-robin over the fixable Table 3 categories, each
/// planted so it only manifests when the scheduler starves the worker
/// goroutine past a computation window (see
/// [`templates::ordering_sensitive_case`]).
///
/// This is the schedule hard tail the Table 3 templates lack — their
/// races carry no happens-before edge, so any schedule exposes them —
/// and it is what the `schedules_to_expose` bench and the corpus-wide
/// exposure test suite measure policies against.
pub fn generate_exposure_corpus(cfg: &CorpusConfig) -> Vec<RaceCase> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE590);
    let cats = RaceCategory::all();
    let mut cases = Vec::with_capacity(cfg.eval_cases);
    for idx in 0..cfg.eval_cases {
        let cat = cats[idx % cats.len()];
        let mut case = templates::ordering_sensitive_case(&mut rng, cat, idx);
        case.id = format!("expose-{idx:04}");
        cases.push(case);
    }
    cases
}

/// Builds the tournament corpus: `eval_cases` races cycling the four
/// statically-interesting families of [`templates::tournament_case`]
/// (RWMutex-upgrade, double-checked locking, channel-select, and
/// racy-read-in-`return`).
///
/// These are the shapes where a single generated candidate is often
/// wrong in a *statically visible* way — the natural mutex patch draws
/// an `inconsistent-lock` warning or a structural `double-lock` error —
/// so the tournament arm's lint-driven repair loop and per-candidate
/// gate accounting have real work to do, while the single-path loop
/// burns validation campaigns on the same defects.
pub fn generate_tournament_corpus(cfg: &CorpusConfig) -> Vec<RaceCase> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7042);
    let mut cases = Vec::with_capacity(cfg.eval_cases);
    for idx in 0..cfg.eval_cases {
        let mut case = templates::tournament_case(&mut rng, idx);
        case.id = format!("tourn-{idx:04}");
        cases.push(case);
    }
    cases
}

/// Builds the large-heap perf family: `n` clean map/slice-heavy
/// programs cycling the three [`templates::large_heap_case`] shapes
/// (slice scan, map churn, mixed registry under an RWMutex), with
/// per-case deterministic size variation.
///
/// This is the VM-cost workload the hot-path roadmap called for once
/// map/slice-heavy scenarios became the next bottleneck: working
/// sets of hundreds of tracked cells (dense detector state), full-slice
/// read sharing, and per-element RLock/RUnlock merge-release traffic.
pub fn generate_large_heap_corpus(n: usize, seed: u64) -> Vec<PerfCase> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4EAF);
    (0..n)
        .map(|idx| templates::large_heap_case(&mut rng, idx))
        .collect()
}

/// Builds the churn perf family: `n` clean long-lived programs whose
/// goroutines and heap cells die and are replaced continuously —
/// wait-grouped worker generations over fresh buffers, and sequential
/// short-lived sessions over fresh private maps (see
/// [`templates::churn_case`]).
///
/// This is the streaming-detection workload: on the LargeHeap family
/// shadow state legitimately stays live, but here almost everything is
/// dead a generation later, so the shadow GC and clock-slot
/// reclamation have something real to do. The soak test runs the
/// scalable shape ([`churn_soak_case`]) for ≥1M steps and asserts the
/// memory bound.
pub fn generate_churn_corpus(n: usize, seed: u64) -> Vec<PerfCase> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4E2);
    (0..n)
        .map(|idx| templates::churn_case(&mut rng, idx))
        .collect()
}

/// Synthetic synchronisation-heavy programs `(name, source, test)`:
/// mutex handoffs, RWMutex read/write mixes and wait-group fan-ins that
/// the (deliberately unsynchronised) exposure corpus never executes.
/// They put real numbers on the detector's lock-release buffer reuse
/// (`clock_allocs_avoided`) and the lock-aware owner cache, which
/// `tests/lockregime_golden.rs` pins.
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

pub use templates::churn_soak_case;

/// One fixed-source lint shape: a small program with a known static
/// diagnosis, used to pin `statcheck`'s output in golden tests.
#[derive(Debug, Clone)]
pub struct LintShape {
    /// Stable shape id (also the golden-test key).
    pub id: &'static str,
    /// File name the source is checked under.
    pub file: &'static str,
    /// The program.
    pub source: &'static str,
    /// Rule ids the analyzer must report, in source order. Empty means
    /// the shape must be diagnostic-free.
    pub expected_rules: &'static [&'static str],
}

/// The LintShapes family: canonical synchronization-misuse shapes (and
/// one clean control) with their expected `statcheck` rules. Unlike the
/// generated corpora these are fixed sources — the golden test pins the
/// analyzer's exact output on them.
pub fn lint_shapes() -> Vec<LintShape> {
    vec![
        LintShape {
            id: "clean",
            file: "clean.go",
            source: "package main\n\nimport (\n\t\"fmt\"\n\t\"sync\"\n)\n\nvar mu sync.Mutex\nvar n int\n\nfunc Add(d int) {\n\tmu.Lock()\n\tdefer mu.Unlock()\n\tn = n + d\n}\n\nfunc main() {\n\tvar wg sync.WaitGroup\n\twg.Add(2)\n\tgo func() {\n\t\tdefer wg.Done()\n\t\tAdd(1)\n\t}()\n\tgo func() {\n\t\tdefer wg.Done()\n\t\tAdd(2)\n\t}()\n\twg.Wait()\n\tfmt.Println(n)\n}\n",
            expected_rules: &[],
        },
        LintShape {
            id: "double-lock",
            file: "double_lock.go",
            source: "package main\n\nimport (\n\t\"fmt\"\n\t\"sync\"\n)\n\nvar mu sync.Mutex\nvar n int\n\nfunc main() {\n\tmu.Lock()\n\tmu.Lock()\n\tn++\n\tmu.Unlock()\n\tmu.Unlock()\n\tfmt.Println(n)\n}\n",
            expected_rules: &["double-lock"],
        },
        LintShape {
            id: "leaked-lock-early-return",
            file: "leaked_lock.go",
            source: "package main\n\nimport (\n\t\"fmt\"\n\t\"sync\"\n)\n\nvar mu sync.Mutex\nvar n int\n\nfunc Bump(limit int) int {\n\tmu.Lock()\n\tif n >= limit {\n\t\treturn n\n\t}\n\tn++\n\tmu.Unlock()\n\treturn n\n}\n\nfunc main() {\n\tfmt.Println(Bump(3))\n}\n",
            expected_rules: &["missing-unlock"],
        },
        LintShape {
            id: "lock-order-inversion",
            file: "lock_order.go",
            source: "package main\n\nimport \"sync\"\n\nvar muA sync.Mutex\nvar muB sync.Mutex\nvar a int\nvar b int\n\nfunc MoveAB() {\n\tmuA.Lock()\n\tmuB.Lock()\n\ta--\n\tb++\n\tmuB.Unlock()\n\tmuA.Unlock()\n}\n\nfunc MoveBA() {\n\tmuB.Lock()\n\tmuA.Lock()\n\tb--\n\ta++\n\tmuA.Unlock()\n\tmuB.Unlock()\n}\n\nfunc main() {\n\tvar wg sync.WaitGroup\n\twg.Add(2)\n\tgo func() {\n\t\tdefer wg.Done()\n\t\tMoveAB()\n\t}()\n\tgo func() {\n\t\tdefer wg.Done()\n\t\tMoveBA()\n\t}()\n\twg.Wait()\n}\n",
            expected_rules: &["lock-order-cycle"],
        },
        LintShape {
            id: "mutex-by-value",
            file: "mutex_by_value.go",
            source: "package main\n\nimport (\n\t\"fmt\"\n\t\"sync\"\n)\n\ntype Counter struct {\n\tmu sync.Mutex\n\tn int\n}\n\nfunc bump(c Counter) int {\n\tc.mu.Lock()\n\tc.n++\n\tc.mu.Unlock()\n\treturn c.n\n}\n\nfunc main() {\n\tc := Counter{}\n\tfmt.Println(bump(c))\n}\n",
            expected_rules: &["copylocks"],
        },
    ]
}

/// Builds the curated example database (Table 3's VectorDB column:
/// capture-by-reference 37.5%, missing-sync 14.7%, parallel-test 11.8%,
/// loop-var 2.6%, map 5.2%, slice 2.6%, others 25.7%).
pub fn generate_example_db(cfg: &CorpusConfig) -> Vec<DbPair> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xDB);
    let quota = distribute(
        cfg.db_pairs,
        &[
            (RaceCategory::CaptureByReference, 0.375),
            (RaceCategory::MissingSync, 0.147),
            (RaceCategory::ParallelTest, 0.118),
            (RaceCategory::LoopVarCapture, 0.026),
            (RaceCategory::ConcurrentMap, 0.052),
            (RaceCategory::ConcurrentSlice, 0.026),
            (RaceCategory::Other, 0.257),
        ],
    );
    let mut out = Vec::with_capacity(cfg.db_pairs);
    for (cat, n) in quota {
        for i in 0..n {
            out.push(templates::db_pair(&mut rng, cat, i));
        }
    }
    out
}

/// Splits `total` across weighted buckets, largest remainders last.
fn distribute<T: Copy>(total: usize, weights: &[(T, f64)]) -> Vec<(T, usize)> {
    let mut out: Vec<(T, usize)> = weights
        .iter()
        .map(|(t, w)| (*t, (total as f64 * w).floor() as usize))
        .collect();
    let mut assigned: usize = out.iter().map(|(_, n)| n).sum();
    let len = out.len();
    let mut i = 0;
    while assigned < total {
        out[i % len].1 += 1;
        assigned += 1;
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_requested_size_and_mix() {
        let cases = generate_eval_corpus(&CorpusConfig {
            eval_cases: 100,
            db_pairs: 0,
            seed: 1,
        });
        assert_eq!(cases.len(), 100);
        let hard = cases.iter().filter(|c| c.hard.is_some()).count();
        assert!((30..40).contains(&hard), "hard cases: {hard}");
        // Every Table 3 category appears.
        for cat in RaceCategory::all() {
            assert!(cases.iter().any(|c| c.category == *cat), "missing {cat:?}");
        }
    }

    #[test]
    fn cases_parse_and_carry_tests() {
        let cases = generate_eval_corpus(&CorpusConfig {
            eval_cases: 30,
            db_pairs: 0,
            seed: 2,
        });
        for c in &cases {
            assert!(!c.files.is_empty(), "{}", c.id);
            for (name, src) in &c.files {
                golite::parse_file(src).unwrap_or_else(|e| panic!("{} {name}: {e}\n{src}", c.id));
            }
            assert!(c.test.starts_with("Test"), "{}", c.id);
        }
    }

    #[test]
    fn fixable_cases_have_human_fixes_that_parse() {
        let cases = generate_eval_corpus(&CorpusConfig {
            eval_cases: 40,
            db_pairs: 0,
            seed: 3,
        });
        for c in cases.iter().filter(|c| c.fixable) {
            let fix = c
                .human_fix
                .as_ref()
                .unwrap_or_else(|| panic!("{} lacks fix", c.id));
            for (name, src) in fix {
                golite::parse_file(src)
                    .unwrap_or_else(|e| panic!("{} {name} fix: {e}\n{src}", c.id));
            }
            assert!(c.human_fix_loc().unwrap() > 0, "{}", c.id);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = CorpusConfig {
            eval_cases: 20,
            db_pairs: 10,
            seed: 7,
        };
        let a = generate_eval_corpus(&cfg);
        let b = generate_eval_corpus(&cfg);
        assert_eq!(
            a.iter().map(|c| &c.files).collect::<Vec<_>>(),
            b.iter().map(|c| &c.files).collect::<Vec<_>>()
        );
        let da = generate_example_db(&cfg);
        let db = generate_example_db(&cfg);
        assert_eq!(
            da.iter().map(|p| &p.buggy).collect::<Vec<_>>(),
            db.iter().map(|p| &p.buggy).collect::<Vec<_>>()
        );
    }

    #[test]
    fn db_pairs_parse_and_differ() {
        let db = generate_example_db(&CorpusConfig {
            eval_cases: 0,
            db_pairs: 40,
            seed: 4,
        });
        assert_eq!(db.len(), 40);
        for p in &db {
            golite::parse_file(&p.buggy).unwrap_or_else(|e| panic!("buggy: {e}\n{}", p.buggy));
            golite::parse_file(&p.fixed).unwrap_or_else(|e| panic!("fixed: {e}\n{}", p.fixed));
            assert_ne!(p.buggy, p.fixed);
        }
    }

    #[test]
    fn diff_lines_counts_changes() {
        assert_eq!(diff_lines("a\nb\nc", "a\nb\nc"), 0);
        assert_eq!(diff_lines("a\nb", "a\nc"), 2);
        assert!(diff_lines("x", "x\ny\nz") >= 2);
    }

    #[test]
    fn exposure_corpus_parses_covers_categories_and_is_deterministic() {
        let cfg = CorpusConfig {
            eval_cases: 14,
            db_pairs: 0,
            seed: 5,
        };
        let a = generate_exposure_corpus(&cfg);
        assert_eq!(a.len(), 14);
        for c in &a {
            assert!(c.fixable, "{}", c.id);
            for (name, src) in &c.files {
                golite::parse_file(src).unwrap_or_else(|e| panic!("{} {name}: {e}\n{src}", c.id));
            }
            let fix = c
                .human_fix
                .as_ref()
                .unwrap_or_else(|| panic!("{} lacks fix", c.id));
            for (name, src) in fix {
                golite::parse_file(src)
                    .unwrap_or_else(|e| panic!("{} {name} fix: {e}\n{src}", c.id));
            }
            // The racy rendition gates the race behind a non-blocking
            // select; the fix replaces it with a blocking receive.
            assert!(c.files[0].1.contains("select"), "{}", c.id);
            assert!(!fix[0].1.contains("select"), "{}", c.id);
        }
        for cat in RaceCategory::all() {
            assert!(a.iter().any(|c| c.category == *cat), "missing {cat:?}");
        }
        let b = generate_exposure_corpus(&cfg);
        assert_eq!(
            a.iter().map(|c| &c.files).collect::<Vec<_>>(),
            b.iter().map(|c| &c.files).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tournament_corpus_parses_cycles_families_and_is_deterministic() {
        let cfg = CorpusConfig {
            eval_cases: 8,
            db_pairs: 0,
            seed: 6,
        };
        let a = generate_tournament_corpus(&cfg);
        assert_eq!(a.len(), 8);
        for c in &a {
            assert!(c.fixable, "{}", c.id);
            for (name, src) in &c.files {
                golite::parse_file(src).unwrap_or_else(|e| panic!("{} {name}: {e}\n{src}", c.id));
            }
            let fix = c
                .human_fix
                .as_ref()
                .unwrap_or_else(|| panic!("{} lacks fix", c.id));
            for (name, src) in fix {
                golite::parse_file(src)
                    .unwrap_or_else(|e| panic!("{} {name} fix: {e}\n{src}", c.id));
            }
            assert!(c.human_fix_loc().unwrap() > 0, "{}", c.id);
        }
        // The four families cycle by index.
        assert!(a[0].files[0].1.contains("RLock"), "{}", a[0].id);
        assert!(a[1].files[0].1.contains("cache == nil"), "{}", a[1].id);
        assert!(a[2].files[0].1.contains("select"), "{}", a[2].id);
        assert!(a[3].files[0].1.contains("return len"), "{}", a[3].id);
        let b = generate_tournament_corpus(&cfg);
        assert_eq!(
            a.iter().map(|c| &c.files).collect::<Vec<_>>(),
            b.iter().map(|c| &c.files).collect::<Vec<_>>()
        );
    }

    #[test]
    fn large_heap_corpus_parses_cycles_shapes_and_is_deterministic() {
        let a = generate_large_heap_corpus(6, 5);
        assert_eq!(a.len(), 6);
        for c in &a {
            for (name, src) in &c.files {
                golite::parse_file(src).unwrap_or_else(|e| panic!("{} {name}: {e}\n{src}", c.id));
            }
            assert!(c.test.starts_with("Test"), "{}", c.id);
        }
        // All three shapes appear.
        for shape in ["heap-slice", "heap-map", "heap-mixed"] {
            assert!(a.iter().any(|c| c.id.starts_with(shape)), "missing {shape}");
        }
        // Sizes vary across instances of the same shape (the literals
        // differ even though the shape is shared).
        assert_ne!(a[0].files[0].1, a[3].files[0].1);
        let b = generate_large_heap_corpus(6, 5);
        assert_eq!(
            a.iter().map(|c| &c.files).collect::<Vec<_>>(),
            b.iter().map(|c| &c.files).collect::<Vec<_>>()
        );
    }

    #[test]
    fn identifier_noise_varies_across_cases() {
        let cases = generate_eval_corpus(&CorpusConfig {
            eval_cases: 12,
            db_pairs: 0,
            seed: 9,
        });
        let same_cat: Vec<&RaceCase> = cases
            .iter()
            .filter(|c| c.category == RaceCategory::CaptureByReference && c.fixable)
            .collect();
        assert!(same_cat.len() >= 2);
        assert_ne!(same_cat[0].files[0].1, same_cat[1].files[0].1);
    }
}
