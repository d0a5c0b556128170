//! Statcheck report golden: the exact `check_sources` output — rule,
//! severity, span and message of every diagnostic, file by file — on two
//! input sets, pinned byte for byte.
//!
//! - The lint corpus: every racy eval-corpus original and its human fix,
//!   every `LintShapes` fixture, and the sync-heavy, LargeHeap and Churn
//!   perf families.
//! - Every tournament candidate of the first 60 mixed-stream cases and of
//!   the first 60 tournament-family cases (the patches the pool build
//!   probes; the tournament family is where the repair loop has findings
//!   to work on), retained with `keep_candidates`.
//!
//! Before the golden is compared or rewritten, the lint corpus must keep
//! the patch gate's false-positive contract: no diagnostic on a human
//! fix, the clean `LintShapes` control or a perf-family program (a
//! diagnostic there could veto a genuine fix); no error-tier finding on
//! a racy original (its bug is a data race, not broken lock discipline,
//! so an error would reject every candidate for the case); and each
//! `LintShapes` fixture reports exactly its `expected_rules`, so a
//! silenced analyzer cannot pass the sweep.
//!
//! Run with `DRFIX_UPDATE_GOLDENS=1` to rewrite the golden after an
//! intended change of the analyzer's output.

use corpus::stream::{CorpusStream, StreamConfig, StreamFamily};
use corpus::CorpusConfig;
use drfix::fleet::derive_case_seed;
use drfix::{DrFix, PipelineConfig, TournamentConfig};
use statcheck::{Diagnostic, FileReport, Severity};
use std::fmt::Write;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/statcheck_reports.txt")
}

/// Appends the analyzer's report on `files` under a `== label` header
/// and returns it.
fn render(out: &mut String, label: &str, files: &[(String, String)]) -> Vec<FileReport> {
    writeln!(out, "== {label}").unwrap();
    let reports = statcheck::check_sources(files)
        .unwrap_or_else(|(f, d)| panic!("{label}: {f} does not parse: {d}"));
    for r in &reports {
        for d in &r.diagnostics {
            writeln!(
                out,
                "{} {}..{} {:?} {} {}",
                r.file, d.span.lo, d.span.hi, d.severity, d.rule, d.message
            )
            .unwrap();
        }
    }
    reports
}

/// [`render`]s `files` and records each diagnostic that `allowed`
/// refuses as a violation naming the program `label`.
fn gate(
    out: &mut String,
    bad: &mut Vec<String>,
    label: &str,
    files: &[(String, String)],
    allowed: impl Fn(&Diagnostic) -> bool,
) {
    for r in &render(out, label, files) {
        for d in r.diagnostics.iter().filter(|d| !allowed(d)) {
            bad.push(format!(
                "{label}: {} {:?} {} {}",
                r.file, d.severity, d.rule, d.message
            ));
        }
    }
}

/// Renders the lint corpus and returns its false-positive contract
/// violations, one line per diagnostic naming its program.
fn lint_corpus(out: &mut String) -> Vec<String> {
    let mut bad = Vec::new();
    let silent = |_: &Diagnostic| false;
    let corpus = corpus::generate_eval_corpus(&CorpusConfig {
        eval_cases: 120,
        db_pairs: 0,
        seed: 0xD0F1,
    });
    for case in &corpus {
        let label = format!("racy {}", case.id);
        gate(out, &mut bad, &label, &case.files, |d| {
            d.severity != Severity::Error
        });
        if let Some(fix) = &case.human_fix {
            let mut fixed = case.files.clone();
            for (name, src) in fix {
                if let Some(slot) = fixed.iter_mut().find(|(n, _)| n == name) {
                    slot.1 = src.clone();
                }
            }
            let label = format!("human fix {}", case.id);
            gate(out, &mut bad, &label, &fixed, silent);
        }
    }
    for shape in corpus::lint_shapes() {
        let files = [(shape.file.to_owned(), shape.source.to_owned())];
        let label = format!("lint shape {}", shape.id);
        let reports = render(out, &label, &files);
        let rules: Vec<&str> = reports[0]
            .diagnostics
            .iter()
            .map(|d| d.rule.as_str())
            .collect();
        if rules != shape.expected_rules {
            bad.push(format!(
                "{label}: expected rules {:?}, reported {rules:?}",
                shape.expected_rules
            ));
        }
    }
    for (name, src, _test) in corpus::sync_heavy_cases() {
        let files = [(format!("{name}.go"), src.to_owned())];
        gate(out, &mut bad, &format!("sync-heavy {name}"), &files, silent);
    }
    for case in corpus::generate_large_heap_corpus(3, 0xD0F1) {
        let label = format!("large-heap {}", case.id);
        gate(out, &mut bad, &label, &case.files, silent);
    }
    for case in corpus::generate_churn_corpus(3, 0xD0F1) {
        let label = format!("churn {}", case.id);
        gate(out, &mut bad, &label, &case.files, silent);
    }
    bad
}

/// Every tournament candidate of the first 60 cases of `family`, with
/// `drbench`'s fix-service seeds and tournament.
fn tournament_candidates(out: &mut String, family: StreamFamily) {
    let stream = CorpusStream::new(StreamConfig {
        family,
        seed: 0xD27F17,
    });
    for i in 0..60 {
        let case = stream.case(i);
        let p = PipelineConfig {
            seed: derive_case_seed(0, i as u64),
            detect_runs: 12,
            tournament: Some(TournamentConfig {
                keep_candidates: true,
            }),
            ..PipelineConfig::default()
        };
        let fix = DrFix::new(p, None).fix_case(&case.files, &case.test);
        for c in fix.tournament.iter().flat_map(|t| &t.candidates) {
            let patch = c.patch.as_ref().expect("keep_candidates retains patches");
            let label = format!("{family:?} case {i} candidate {}", c.id);
            render(out, &label, patch);
        }
    }
}

#[test]
fn statcheck_reports_match_the_golden() {
    let mut actual = String::new();
    let bad = lint_corpus(&mut actual);
    assert!(
        bad.is_empty(),
        "statcheck false-positive contract broken on {} diagnostic(s):\n{}",
        bad.len(),
        bad.join("\n")
    );
    tournament_candidates(&mut actual, StreamFamily::Mixed);
    tournament_candidates(&mut actual, StreamFamily::Tournament);
    let path = golden_path();
    if std::env::var("DRFIX_UPDATE_GOLDENS").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
        eprintln!("golden rewritten at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden at {}: {e}", path.display()));
    let candidates = actual.matches(" candidate ").count();
    assert!(candidates > 300, "only {candidates} candidates rendered");
    if let Some((n, (e, a))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (e, a))| e != a)
    {
        panic!(
            "statcheck report drifted at golden line {}:\n  want {e}\n  got  {a}",
            n + 1
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "statcheck report line count drifted"
    );
    assert!(expected == actual, "statcheck report bytes drifted");
}
