//! `lintcorpus` — the static-analyzer false-positive gate behind
//! `make lint-corpus`.
//!
//! Sweeps `statcheck` over every program family the pipeline treats as
//! *correct* and fails (exit code 1) if the analyzer reports anything
//! on them:
//!
//! - the human fix of every eval-corpus case (the reference patches
//!   dynamic validation accepts — a diagnostic here would let the gate
//!   veto a genuine fix);
//! - the clean `LintShapes` control;
//! - the synthetic perf families (sync-heavy, LargeHeap, Churn) — the
//!   lock-dense programs where lockset analysis is most tempted to
//!   cry wolf.
//!
//! The racy eval-corpus originals are additionally required to stay
//! free of *error-tier* findings: their bug is a data race, not broken
//! lock discipline, so an error there would poison every candidate
//! spliced into the codebase before the model even runs.
//!
//! As a teeth check, the non-clean `LintShapes` fixtures must each keep
//! firing their expected rules (the golden test pins the exact output;
//! this guards against a silently lobotomised analyzer passing the
//! zero-FP sweep).
//!
//! Scale knob: `DRFIX_LINT_CASES` (default 120) sizes the eval corpus.

use corpus::CorpusConfig;
use std::process::ExitCode;

/// One scanned family's tally.
struct Tally {
    family: &'static str,
    programs: usize,
    errors: usize,
    warnings: usize,
}

fn scan(files: &[(String, String)]) -> (usize, usize) {
    let reports = statcheck::check_sources(files)
        .unwrap_or_else(|(f, d)| panic!("corpus file {f} does not parse: {d}"));
    let errors = statcheck::count_severity(&reports, golite::diag::Severity::Error);
    let warnings = statcheck::count_severity(&reports, golite::diag::Severity::Warning);
    (errors, warnings)
}

fn main() -> ExitCode {
    let cases: usize = bench::knob("DRFIX_LINT_CASES").unwrap_or(120);
    bench::header(
        "lintcorpus — statcheck false-positive sweep over the correct programs",
        "Dr.Fix §4.4 (validation must not veto genuine fixes)",
    );

    let corpus = corpus::generate_eval_corpus(&CorpusConfig {
        eval_cases: cases,
        db_pairs: 0,
        seed: 0xD0F1,
    });

    let mut tallies: Vec<Tally> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // Racy originals: error tier must stay silent (warnings are the
    // analyzer speaking about genuinely suspicious shapes and are
    // reported, not gated).
    let mut racy = Tally {
        family: "racy originals",
        programs: 0,
        errors: 0,
        warnings: 0,
    };
    for case in &corpus {
        let (e, w) = scan(&case.files);
        racy.programs += 1;
        racy.errors += e;
        racy.warnings += w;
        if e > 0 {
            failures.push(format!(
                "racy original {}: {e} error-tier finding(s) — the gate would reject \
                 every candidate for this case",
                case.id
            ));
        }
    }
    tallies.push(racy);

    // The clean set: any diagnostic at all is a false positive.
    let mut clean_sets: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for case in &corpus {
        if let Some(fix) = &case.human_fix {
            let mut fixed = case.files.clone();
            for (name, src) in fix {
                if let Some(slot) = fixed.iter_mut().find(|(n, _)| n == name) {
                    slot.1 = src.clone();
                }
            }
            clean_sets.push((format!("human fix {}", case.id), fixed));
        }
    }
    let fixes = Tally {
        family: "human fixes",
        programs: clean_sets.len(),
        errors: 0,
        warnings: 0,
    };
    tallies.push(fixes);

    let clean_shape = corpus::lint_shapes()
        .into_iter()
        .find(|s| s.id == "clean")
        .expect("LintShapes clean control");
    clean_sets.push((
        "lint-shape clean".to_owned(),
        vec![(clean_shape.file.to_owned(), clean_shape.source.to_owned())],
    ));
    tallies.push(Tally {
        family: "lint-shape clean",
        programs: 1,
        errors: 0,
        warnings: 0,
    });

    let mut perf = Tally {
        family: "perf families",
        programs: 0,
        errors: 0,
        warnings: 0,
    };
    let mut perf_sets: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for (name, src, _test) in corpus::sync_heavy_cases() {
        perf_sets.push((
            format!("sync-heavy {name}"),
            vec![(format!("{name}.go"), src.to_owned())],
        ));
    }
    for case in corpus::generate_large_heap_corpus(3, 0xD0F1) {
        perf_sets.push((format!("large-heap {}", case.id), case.files));
    }
    for case in corpus::generate_churn_corpus(3, 0xD0F1) {
        perf_sets.push((format!("churn {}", case.id), case.files));
    }
    perf.programs = perf_sets.len();
    tallies.push(perf);
    clean_sets.extend(perf_sets);

    for (label, files) in &clean_sets {
        let (e, w) = scan(files);
        if e + w > 0 {
            failures.push(format!(
                "{label}: {e} error(s) + {w} warning(s) on a correct program"
            ));
            let reports = statcheck::check_sources(files).expect("re-scan");
            for r in &reports {
                let src = files
                    .iter()
                    .find(|(n, _)| *n == r.file)
                    .map(|(_, s)| s.as_str())
                    .unwrap_or("");
                for d in &r.diagnostics {
                    eprintln!("  {}", d.render(&r.file, src));
                }
            }
        }
        let idx = match label.as_str() {
            l if l.starts_with("human fix") => 1,
            l if l.starts_with("lint-shape") => 2,
            _ => 3,
        };
        tallies[idx].errors += e;
        tallies[idx].warnings += w;
    }

    // Teeth check: the misuse fixtures must still fire.
    for shape in corpus::lint_shapes() {
        if shape.id == "clean" {
            continue;
        }
        let report = statcheck::check_file(shape.file, shape.source)
            .unwrap_or_else(|d| panic!("lint shape {} does not parse: {d}", shape.id));
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
        if rules != shape.expected_rules {
            failures.push(format!(
                "lint shape {}: expected rules {:?}, analyzer reported {:?} — the sweep \
                 has no teeth if the misuse fixtures go silent",
                shape.id, shape.expected_rules, rules
            ));
        }
    }

    println!(
        "\n{:<18} {:>9} {:>8} {:>9}",
        "family", "programs", "errors", "warnings"
    );
    for t in &tallies {
        println!(
            "{:<18} {:>9} {:>8} {:>9}",
            t.family, t.programs, t.errors, t.warnings
        );
    }

    if failures.is_empty() {
        println!(
            "\nlint-corpus OK: zero false positives across {} correct programs \
             (and every misuse fixture still fires)",
            tallies.iter().skip(1).map(|t| t.programs).sum::<usize>()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nlint-corpus FAILED: {} violation(s)", failures.len());
        for f in &failures {
            eprintln!("- {f}");
        }
        ExitCode::FAILURE
    }
}
