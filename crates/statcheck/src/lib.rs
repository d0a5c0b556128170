//! `statcheck` — a lockset/lock-order static analyzer for `golite`
//! programs, used by the Dr.Fix reproduction (PLDI 2025) to gate
//! candidate patches *before* dynamic validation.
//!
//! The analyzer builds per-function control-flow graphs ([`mod@cfg`]), runs
//! a lockset dataflow over each ([`lockset`]), links lock acquisitions
//! into a cross-function ordering graph ([`lockorder`]), and adds a set
//! of AST-level lints ([`lints`]). Findings are [`golite::Diagnostic`]s
//! on two tiers:
//!
//! - **errors** are sound for rejection: a flagged program misuses
//!   synchronization on every execution (guaranteed deadlock, unlock of
//!   an unheld lock, a `WaitGroup` that can never drain, …), so the
//!   patch gate can discard the candidate without running it;
//! - **warnings** are heuristic (possible leaks, ordering cycles,
//!   suspicious lock usage) and must never override a dynamically-clean
//!   verdict.
//!
//! # Example
//!
//! ```
//! let src = "package main\n\nimport \"sync\"\n\nvar mu sync.Mutex\n\nfunc main() {\n\tmu.Lock()\n\tmu.Lock()\n}\n";
//! let reports = statcheck::check_sources(&[("main.go".to_owned(), src.to_owned())]).unwrap();
//! let (file, diag) = statcheck::first_error(&reports).expect("double lock found");
//! assert_eq!(file, "main.go");
//! assert_eq!(diag.rule, "double-lock");
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod lints;
pub mod lockorder;
pub mod lockset;

use cfg::{ContextKind, PathId, Paths};
use golite::ast::Decl;
use lockset::AccessFact;
use std::borrow::Borrow;
use std::collections::BTreeMap;

pub use golite::{Diagnostic, Severity};

/// All diagnostics found in one source file, sorted by position.
#[derive(Debug)]
pub struct FileReport {
    /// File name as given to [`check_sources`].
    pub file: String,
    /// Diagnostics, ordered by span then rule.
    pub diagnostics: Vec<Diagnostic>,
}

/// Analyzes a set of sources that form one program. Returns one report
/// per file (in input order); lock-order cycles are detected across
/// files. Fails only if a file does not parse.
pub fn check_sources(
    files: &[(String, String)],
) -> Result<Vec<FileReport>, (String, golite::Diag)> {
    let parsed = golite::parse_sources(files).map_err(|(i, d)| (files[i].0.clone(), d))?;
    Ok(check_parsed(&parsed))
}

/// [`check_sources`] over files already parsed: `(name, source, ast)`
/// triples shaped like `govm::compile_package`'s input, whose ASTs may be
/// owned or borrowed — one parse serves the compiler and the analyzer.
pub fn check_parsed<F: Borrow<golite::File>>(files: &[(String, String, F)]) -> Vec<FileReport> {
    // Program-wide naming facts: a package-level lock declared in one
    // file must qualify identically when used from another.
    let env = cfg::FileEnv::for_program(files.iter().map(|(_, _, f)| f.borrow()));
    // Functions that cannot contribute a fact (`cfg::relevant`), flagged
    // by their index in the file's decls, get no context and no lint
    // walk: the reports are those of the whole program.
    let relevant: Vec<Vec<bool>> = files
        .iter()
        .map(|(_, _, f)| {
            let decls = &f.borrow().decls;
            decls
                .iter()
                .map(|d| matches!(d, Decl::Func(func) if cfg::relevant(func, &env)))
                .collect()
        })
        .collect();
    // Every file's contexts are built before any is analysed, so the path
    // ids can be put in path order once for the whole program.
    let mut paths = Paths::default();
    let mut contexts: Vec<Vec<cfg::Context>> = files
        .iter()
        .zip(&relevant)
        .map(|((_, _, f), keep)| cfg::contexts_where(f.borrow(), &env, &mut paths, |i| keep[i]))
        .collect();
    paths.sort(contexts.iter_mut().flatten());
    let mut reports: Vec<FileReport> = Vec::new();
    let mut analyzed: Vec<lockorder::Analyzed> = Vec::new();
    let per_file = files.iter().zip(&contexts).zip(&relevant);
    for (idx, (((name, _, file), ctxs), keep)) in per_file.enumerate() {
        let mut diags = lints::lint_bodies(file.borrow(), |i| keep[i]);
        let mut accesses: Vec<AccessFact> = Vec::new();
        for ctx in ctxs {
            let mut res = lockset::solve(ctx, &paths);
            diags.append(&mut res.diags);
            accesses.append(&mut res.accesses);
            analyzed.push((idx, ctx.func, ctx.kind, res));
        }
        diags.extend(access_lints(&accesses, &paths));
        reports.push(FileReport {
            file: name.clone(),
            diagnostics: diags,
        });
    }
    for (idx, diag) in lockorder::lock_order_diagnostics(&analyzed, &paths) {
        reports[idx].diagnostics.push(diag);
    }
    for r in &mut reports {
        r.diagnostics
            .sort_by(|a, b| (a.span.lo, a.span.hi, &a.rule).cmp(&(b.span.lo, b.span.hi, &b.rule)));
        r.diagnostics.dedup();
    }
    reports
}

/// Analyzes a single file.
pub fn check_file(name: &str, src: &str) -> Result<FileReport, golite::Diag> {
    let mut reports = check_sources(&[(name.to_owned(), src.to_owned())]).map_err(|(_, d)| d)?;
    Ok(reports.remove(0))
}

/// The first error-tier diagnostic across all reports, with its file.
pub fn first_error(reports: &[FileReport]) -> Option<(&str, &Diagnostic)> {
    reports.iter().find_map(|r| {
        r.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .map(|d| (r.file.as_str(), d))
    })
}

/// Counts diagnostics of `severity` across all reports.
pub fn count_severity(reports: &[FileReport], severity: Severity) -> usize {
    reports
        .iter()
        .map(|r| {
            r.diagnostics
                .iter()
                .filter(|d| d.severity == severity)
                .count()
        })
        .sum()
}

/// Cross-context lints over the access facts of one file:
/// `inconsistent-lock` and `rwmutex-confusion`. Path ids are in path
/// order, so groups are visited by path.
pub fn access_lints(accesses: &[AccessFact], paths: &Paths) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut groups: BTreeMap<PathId, Vec<&AccessFact>> = BTreeMap::new();
    for a in accesses {
        groups.entry(a.path).or_default().push(a);
    }
    for (path, facts) in groups {
        let path = paths.shown(path);
        let written = facts.iter().any(|a| a.write && a.concurrent);
        if !written {
            // Read-only data cannot race, and neither can writes that
            // all happen in a function's sequential prefix (before any
            // `go` statement) — init-then-spawn is a correct idiom.
            continue;
        }
        // Only shared state touched on spawned goroutines matters;
        // context-local variables are private by construction.
        let shared: Vec<&&AccessFact> = facts
            .iter()
            .filter(|a| a.kind == ContextKind::Goroutine && !a.declared_local)
            .collect();
        let guarded: Vec<&&&AccessFact> = shared
            .iter()
            .filter(|a| !a.held_write.is_empty() || !a.held_read.is_empty())
            .collect();
        let unguarded: Vec<&&&AccessFact> = shared
            .iter()
            .filter(|a| a.held_write.is_empty() && a.held_read.is_empty())
            .collect();
        if let (Some(g), Some(u)) = (guarded.first(), unguarded.iter().min_by_key(|a| a.span.lo)) {
            let lock = g.held_write.iter().chain(&g.held_read).next();
            diags.push(Diagnostic::warning(
                "inconsistent-lock",
                format!(
                    "`{}` is guarded by `{}` in some goroutines but accessed without a lock here",
                    path,
                    lock.map_or("", |&l| paths.shown(l))
                ),
                u.span,
            ));
        }
        for a in &shared {
            if a.write && a.held_write.is_empty() {
                if let Some(&lock) = a.held_read.first() {
                    diags.push(Diagnostic::warning(
                        "rwmutex-confusion",
                        format!(
                            "write to `{}` while only the read lock of `{}` is held",
                            path,
                            paths.shown(lock)
                        ),
                        a.span,
                    ));
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(src: &str) -> Vec<(String, Severity)> {
        check_file("main.go", src)
            .expect("parses")
            .diagnostics
            .into_iter()
            .map(|d| (d.rule, d.severity))
            .collect()
    }

    #[test]
    fn clean_guarded_counter_has_no_diagnostics() {
        let r = rules(
            "package main\n\nimport \"sync\"\n\nfunc main() {\n\tvar mu sync.Mutex\n\tvar wg sync.WaitGroup\n\tn := 0\n\twg.Add(2)\n\tfor i := 0; i < 2; i++ {\n\t\tgo func() {\n\t\t\tdefer wg.Done()\n\t\t\tmu.Lock()\n\t\t\tn++\n\t\t\tmu.Unlock()\n\t\t}()\n\t}\n\twg.Wait()\n\tprintln(n)\n}\n",
        );
        assert!(r.is_empty(), "unexpected diagnostics: {r:?}");
    }

    #[test]
    fn inconsistent_guard_warns() {
        let r = rules(
            "package main\n\nimport \"sync\"\n\nvar mu sync.Mutex\nvar n int\n\nfunc main() {\n\tgo func() {\n\t\tmu.Lock()\n\t\tn++\n\t\tmu.Unlock()\n\t}()\n\tgo func() {\n\t\tn++\n\t}()\n}\n",
        );
        assert_eq!(r, vec![("inconsistent-lock".to_owned(), Severity::Warning)]);
    }

    #[test]
    fn write_under_read_lock_warns() {
        let r = rules(
            "package main\n\nimport \"sync\"\n\nvar mu sync.RWMutex\nvar n int\n\nfunc main() {\n\tgo func() {\n\t\tmu.RLock()\n\t\tn++\n\t\tmu.RUnlock()\n\t}()\n\tgo func() {\n\t\tmu.RLock()\n\t\tn++\n\t\tmu.RUnlock()\n\t}()\n}\n",
        );
        assert!(
            r.iter().any(|(rule, _)| rule == "rwmutex-confusion"),
            "{r:?}"
        );
    }

    #[test]
    fn cross_file_lock_order_cycle_is_found() {
        let f1 = "package main\n\nimport \"sync\"\n\nvar a sync.Mutex\nvar b sync.Mutex\n\nfunc F() {\n\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()\n}\n";
        let f2 =
            "package main\n\nfunc G() {\n\tb.Lock()\n\ta.Lock()\n\ta.Unlock()\n\tb.Unlock()\n}\n";
        let reports = check_sources(&[
            ("a.go".to_owned(), f1.to_owned()),
            ("b.go".to_owned(), f2.to_owned()),
        ])
        .expect("parses");
        let all: Vec<&str> = reports
            .iter()
            .flat_map(|r| r.diagnostics.iter().map(|d| d.rule.as_str()))
            .collect();
        assert!(all.contains(&"lock-order-cycle"), "{all:?}");
    }

    #[test]
    fn findings_at_one_span_come_in_lock_name_order() {
        // `b` is locked first, yet both leaks at the one exit are
        // reported in path order, as they were when paths were strings.
        let src = "package main\n\nimport \"sync\"\n\nvar a sync.Mutex\nvar b sync.Mutex\n\nfunc main() {\n\tb.Lock()\n\ta.Lock()\n}\n";
        let report = check_file("main.go", src).expect("parses");
        let messages: Vec<&str> = report
            .diagnostics
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(
            messages,
            [
                "lock `a` is still held at this return",
                "lock `b` is still held at this return"
            ]
        );
    }

    #[test]
    fn error_helpers_see_only_errors() {
        let src = "package main\n\nimport \"sync\"\n\nvar mu sync.Mutex\n\nfunc main() {\n\tmu.Unlock()\n}\n";
        let reports = check_sources(&[("m.go".to_owned(), src.to_owned())]).unwrap();
        let (file, diag) = first_error(&reports).unwrap();
        assert_eq!(file, "m.go");
        assert_eq!(diag.rule, "unlock-without-lock");
        assert_eq!(count_severity(&reports, Severity::Error), 1);
        assert_eq!(count_severity(&reports, Severity::Warning), 0);
    }

    #[test]
    fn parse_failure_reports_the_failing_file() {
        let err = check_sources(&[
            (
                "ok.go".to_owned(),
                "package main\n\nfunc main() {}\n".to_owned(),
            ),
            ("bad.go".to_owned(), "package main\n\nfunc {\n".to_owned()),
        ])
        .unwrap_err();
        assert_eq!(err.0, "bad.go");
    }
}
