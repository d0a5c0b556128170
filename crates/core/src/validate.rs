//! Fix validation (§4.4.1): build the patched package, statically check
//! its synchronization, run the test under many schedules, and confirm
//! the reported race is gone.
//!
//! The schedule set a campaign explores is controlled by the
//! [`govm::sched::SchedulePolicy`] carried in the [`TestConfig`] that
//! [`validate_patch_report`] takes: policy, run count and seed, dedup
//! early-exit and instruction budget.
//!
//! Between compilation and dynamic validation sits the **static gate**:
//! `statcheck` analyzes the patched sources and rejects candidates whose
//! synchronization is statically guaranteed broken (double-locks,
//! unbalanced unlocks, `WaitGroup` counters that never drain, …) before
//! any schedule is spent on them. Only error-tier diagnostics reject —
//! warning-tier findings never downgrade a dynamically-clean verdict.

use govm::{CompileOptions, TestConfig};
use std::borrow::Borrow;

/// Validation verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The patch builds, the race is gone, and all tests pass.
    Ok,
    /// The patch failed; the message feeds the retry loop (§4.4.2).
    Fail(String),
}

impl Verdict {
    /// `true` for [`Verdict::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Ok)
    }

    /// The failure message, if any.
    pub fn message(&self) -> Option<&str> {
        match self {
            Verdict::Ok => None,
            Verdict::Fail(m) => Some(m),
        }
    }
}

/// Options controlling how [`validate_patch_report`] validates.
#[derive(Debug, Clone)]
pub struct ValidationOptions {
    /// Run the `statcheck` static gate between compile and dynamic
    /// validation, rejecting candidates with error-tier findings.
    pub static_gate: bool,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions { static_gate: true }
    }
}

/// Full report of one validation attempt.
#[derive(Debug, Clone)]
pub struct ValidationOutcome {
    /// The verdict: whether the patch validated, and why not.
    pub verdict: Verdict,
    /// Whether the static gate rejected the candidate (no schedules ran).
    pub rejected_static: bool,
    /// VM instructions executed by dynamic validation (0 when the gate
    /// rejected or the build failed).
    pub vm_steps: u64,
    /// Schedules the campaign replayed from its schedule memo instead of
    /// executing ([`govm::TestOutcome::replayed`]).
    pub replayed_schedules: u64,
}

impl ValidationOutcome {
    /// An outcome reached before any static finding or schedule.
    fn with(verdict: Verdict) -> Self {
        ValidationOutcome {
            verdict,
            rejected_static: false,
            vm_steps: 0,
            replayed_schedules: 0,
        }
    }
}

/// One zero-cost lint probe of a candidate patch: `statcheck` only — no
/// compilation, no schedules, no VM instructions. The tournament's
/// repair loop iterates against this before any dynamic validation is
/// spent (per-candidate gate accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticProbe {
    /// Error-tier findings (sound for rejection).
    pub errors: usize,
    /// Warning-tier findings (heuristic; trigger repair, never reject).
    pub warnings: usize,
    /// Rule of the most severe first finding, if any.
    pub first_rule: Option<String>,
    /// The sources no longer parse (a broken candidate).
    pub broken: bool,
}

impl StaticProbe {
    /// Whether the probe found anything to repair against.
    pub fn clean(&self) -> bool {
        !self.broken && self.errors == 0 && self.warnings == 0
    }
}

/// Runs `statcheck` over a candidate codebase without spending any
/// dynamic validation work. See [`StaticProbe`].
pub fn static_probe(files: &[(String, String)]) -> StaticProbe {
    match golite::parse_sources(files) {
        Ok(parsed) => probe_parsed(&parsed),
        Err(_) => StaticProbe {
            errors: 0,
            warnings: 0,
            first_rule: None,
            broken: true,
        },
    }
}

/// [`static_probe`] over sources already parsed (owned or borrowed ASTs).
pub(crate) fn probe_parsed<F: Borrow<golite::File>>(files: &[(String, String, F)]) -> StaticProbe {
    let reports = statcheck::check_parsed(files);
    let first_rule = statcheck::first_error(&reports)
        .map(|(_, d)| d.rule.clone())
        .or_else(|| {
            reports
                .iter()
                .flat_map(|r| r.diagnostics.iter())
                .next()
                .map(|d| d.rule.clone())
        });
    StaticProbe {
        errors: statcheck::count_severity(&reports, statcheck::Severity::Error),
        warnings: statcheck::count_severity(&reports, statcheck::Severity::Warning),
        first_rule,
        broken: false,
    }
}

/// Validates a patched codebase against the targeted bug hash.
///
/// Mirrors §4.4.1: build, run the static gate (when `opts` asks for it),
/// then run the package test under the schedule campaign `cfg`. The fix
/// validates only if no schedule reproduces the targeted race (the
/// stable bug hash distinguishes it from unrelated pre-existing races),
/// no new panic or deadlock appears, and the test passes. Returns the
/// verdict plus gate statistics and the dynamic instruction count.
pub fn validate_patch_report(
    files: &[(String, String)],
    test: &str,
    bug_hash: &str,
    cfg: &TestConfig,
    opts: &ValidationOptions,
) -> ValidationOutcome {
    // The ASTs are dropped before any schedule runs.
    let built = match golite::parse_sources(files) {
        Ok(parsed) => build_and_gate(&parsed, test, opts),
        // The build stops at the first file that does not parse; that
        // same parse names the file and line.
        Err((i, d)) => {
            let (name, src) = &files[i];
            let msg = format!("build failed: {}", d.render(name, src));
            return ValidationOutcome::with(Verdict::Fail(msg));
        }
    };
    match built {
        Ok((prog, outcome)) => run_schedules(&prog, test, bug_hash, cfg, outcome),
        Err(outcome) => outcome,
    }
}

/// The static half of [`validate_patch_report`] over sources already
/// parsed — `(name, source, ast)` triples whose ASTs may be owned or
/// borrowed, so the compiler and the static gate share one parse. Returns
/// the program with the outcome so far, or the final outcome when the
/// build or the gate rejects the candidate. Spends no schedules, so the
/// caller can drop the ASTs before [`run_schedules`].
pub(crate) fn build_and_gate<F: Borrow<golite::File>>(
    files: &[(String, String, F)],
    test: &str,
    opts: &ValidationOptions,
) -> Result<(govm::Program, ValidationOutcome), ValidationOutcome> {
    let prog = govm::compile_package(files, &CompileOptions::default())
        .map_err(|e| ValidationOutcome::with(Verdict::Fail(format!("build failed: {e}"))))?;
    if prog.find_func(test).is_none() {
        let msg = format!("build failed: test `{test}` disappeared");
        return Err(ValidationOutcome::with(Verdict::Fail(msg)));
    }
    let mut outcome = ValidationOutcome::with(Verdict::Ok);
    if opts.static_gate {
        let reports = statcheck::check_parsed(files);
        if let Some((file, diag)) = statcheck::first_error(&reports) {
            let src = files
                .iter()
                .find(|(n, _, _)| n == file)
                .map_or("", |(_, s, _)| s.as_str());
            outcome.rejected_static = true;
            outcome.verdict =
                Verdict::Fail(format!("static check failed: {}", diag.render(file, src)));
            return Err(outcome);
        }
    }
    Ok((prog, outcome))
}

/// The dynamic half of [`validate_patch_report`]: the schedule campaign
/// on a built, gate-passed candidate, completing `outcome`.
pub(crate) fn run_schedules(
    prog: &govm::Program,
    test: &str,
    bug_hash: &str,
    cfg: &TestConfig,
    mut outcome: ValidationOutcome,
) -> ValidationOutcome {
    let out = govm::run_test_many(prog, test, cfg);
    outcome.vm_steps = out.steps;
    outcome.replayed_schedules = u64::from(out.replayed);
    // A campaign that executed no schedules is vacuously clean — never
    // let that pass as a validated fix (e.g. `runs: 0` misconfiguration).
    if out.runs == 0 {
        outcome.verdict = Verdict::Fail("validation failed: no schedules executed".into());
        return outcome;
    }
    if out.has_bug(bug_hash) {
        outcome.verdict =
            Verdict::Fail("validation failed: the reported data race is still detected".into());
        return outcome;
    }
    if let Some(r) = out.races.first() {
        outcome.verdict = Verdict::Fail(format!(
            "validation failed: a data race is still detected on `{}`",
            r.var_name
        ));
        return outcome;
    }
    if let Some(e) = out.error {
        outcome.verdict = Verdict::Fail(format!("test run failed: {e}"));
        return outcome;
    }
    if !out.test_failures.is_empty() {
        outcome.verdict = Verdict::Fail(format!(
            "test assertions failed: {}",
            out.test_failures.join("; ")
        ));
        return outcome;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verdict of a gated validation campaign under `cfg`.
    fn verdict(src: &str, cfg: &TestConfig) -> Verdict {
        let files = [("a.go".to_string(), src.to_string())];
        validate_patch_report(&files, "TestWork", "x", cfg, &ValidationOptions::default()).verdict
    }

    /// The verdict of a gated `runs`-schedule campaign from `seed` that
    /// runs every schedule, as the pipeline validates.
    fn seeded_verdict(
        files: &[(String, String)],
        test: &str,
        bug_hash: &str,
        runs: u32,
        seed: u64,
    ) -> Verdict {
        let cfg = TestConfig {
            runs,
            seed,
            stop_on_race: false,
            ..TestConfig::default()
        };
        validate_patch_report(files, test, bug_hash, &cfg, &ValidationOptions::default()).verdict
    }

    const CLEAN: &str = r#"package app

import "testing"

func Work() int {
	return 2
}

func TestWork(t *testing.T) {
	if Work() != 2 {
		t.Errorf("bad")
	}
}
"#;

    const RACY: &str = r#"package app

import (
	"sync"
	"testing"
)

func Work() int {
	n := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		n = n + 1
	}()
	go func() {
		defer wg.Done()
		n = n + 2
	}()
	wg.Wait()
	return n
}

func TestWork(t *testing.T) {
	Work()
}
"#;

    #[test]
    fn clean_code_validates() {
        let v = seeded_verdict(
            &[("a.go".into(), CLEAN.into())],
            "TestWork",
            "0000000000000000",
            12,
            0,
        );
        assert!(v.is_ok(), "{:?}", v.message());
    }

    #[test]
    fn racy_code_fails_with_race_message() {
        let v = seeded_verdict(
            &[("a.go".into(), RACY.into())],
            "TestWork",
            "0000000000000000",
            24,
            0,
        );
        let msg = v.message().expect("must fail");
        assert!(msg.contains("data race"), "{msg}");
    }

    #[test]
    fn broken_code_reports_build_failure() {
        let v = seeded_verdict(
            &[(
                "a.go".into(),
                "package app\n\nfunc Broken() {\n\tmystery()\n}\n".into(),
            )],
            "TestWork",
            "x",
            4,
            0,
        );
        assert!(v.message().unwrap().contains("build failed"));
    }

    #[test]
    fn missing_test_reports_build_failure() {
        let v = seeded_verdict(
            &[("a.go".into(), "package app\n".into())],
            "TestGone",
            "x",
            4,
            0,
        );
        assert!(v.message().unwrap().contains("build failed"));
    }

    #[test]
    fn explicit_campaigns_support_policies_and_early_exit() {
        use govm::SchedulePolicy;
        // The PCT policy still catches the racy version…
        let cfg = TestConfig {
            runs: 24,
            seed: 0,
            policy: SchedulePolicy::pct(),
            ..TestConfig::default()
        };
        let v = verdict(RACY, &cfg);
        assert!(v.message().unwrap().contains("data race"));
        // …and clean code validates even with dedup early-exit and a
        // campaign instruction budget switched on.
        let cfg = TestConfig {
            runs: 64,
            seed: 0,
            policy: SchedulePolicy::Random,
            dedup_streak: Some(6),
            max_total_steps: Some(500_000),
            ..TestConfig::default()
        };
        let v = verdict(CLEAN, &cfg);
        assert!(v.is_ok(), "{:?}", v.message());
    }

    #[test]
    fn static_gate_rejects_guaranteed_deadlock_before_running() {
        // A compiling candidate whose goroutine double-locks: the gate
        // must reject it with a span-bearing message and zero VM steps.
        let src = r#"package app

import (
	"sync"
	"testing"
)

var mu sync.Mutex
var n int

func Work() int {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mu.Lock()
		mu.Lock()
		n++
		mu.Unlock()
		mu.Unlock()
	}()
	wg.Wait()
	return n
}

func TestWork(t *testing.T) {
	Work()
}
"#;
        let out = validate_patch_report(
            &[("a.go".into(), src.into())],
            "TestWork",
            "x",
            &TestConfig::default(),
            &ValidationOptions::default(),
        );
        assert!(out.rejected_static);
        assert_eq!(out.vm_steps, 0);
        let msg = out.verdict.message().unwrap();
        assert!(msg.starts_with("static check failed: a.go:"), "{msg}");
        assert!(msg.contains("double-lock"), "{msg}");
        // With the gate off, dynamic validation catches the deadlock too.
        let out = validate_patch_report(
            &[("a.go".into(), src.into())],
            "TestWork",
            "x",
            &TestConfig::default(),
            &ValidationOptions { static_gate: false },
        );
        assert!(!out.rejected_static);
        assert!(out.vm_steps > 0);
        assert!(!out.verdict.is_ok());
    }

    #[test]
    fn warnings_never_downgrade_a_clean_verdict() {
        // `wg.Wait` orders the final read, yet a heuristic rule could be
        // tempted to flag the unguarded parent access: the verdict must
        // stay Ok no matter what the warning tier reports.
        let fixed = r#"package app

import (
	"sync"
	"testing"
)

func Work() int {
	n := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		mu.Lock()
		n = n + 1
		mu.Unlock()
	}()
	go func() {
		defer wg.Done()
		mu.Lock()
		n = n + 2
		mu.Unlock()
	}()
	wg.Wait()
	return n
}

func TestWork(t *testing.T) {
	if Work() != 3 {
		t.Errorf("bad")
	}
}
"#;
        let out = validate_patch_report(
            &[("a.go".into(), fixed.into())],
            "TestWork",
            "x",
            &TestConfig {
                runs: 12,
                ..TestConfig::default()
            },
            &ValidationOptions::default(),
        );
        assert!(out.verdict.is_ok(), "{:?}", out.verdict.message());
        assert!(!out.rejected_static);
    }

    #[test]
    fn build_failures_carry_file_and_line() {
        let v = seeded_verdict(
            &[
                ("ok.go".into(), CLEAN.into()),
                ("bad.go".into(), "package app\n\nfunc Broken( {\n".into()),
            ],
            "TestWork",
            "x",
            4,
            0,
        );
        let msg = v.message().unwrap();
        assert!(msg.starts_with("build failed: bad.go:3:"), "{msg}");
    }

    #[test]
    fn zero_run_campaigns_never_validate() {
        // `runs: 0` executes nothing — that must not read as "race gone".
        let cfg = TestConfig {
            runs: 0,
            ..TestConfig::default()
        };
        let v = verdict(RACY, &cfg);
        assert!(v.message().unwrap().contains("no schedules"), "{v:?}");
        // A zero instruction budget still runs (at least) one schedule,
        // so the racy program is caught rather than vacuously passed.
        let cfg = TestConfig {
            runs: 24,
            max_total_steps: Some(0),
            ..TestConfig::default()
        };
        let v = verdict(RACY, &cfg);
        assert!(v.message().unwrap().contains("data race"), "{v:?}");
    }
}
