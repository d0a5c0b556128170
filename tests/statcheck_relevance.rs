//! Exactness oracle for statcheck's relevance filter.
//!
//! `check_parsed` builds no context and walks no lint over a function
//! that `cfg::relevant` rejects. This file rebuilds the unfiltered
//! analysis from statcheck's public modules — every function's contexts
//! (`cfg::contexts_with`), lockset solves, AST and access lints and the
//! lock-order check — and requires the same reports byte for byte:
//!
//! - on the lint corpus and on the first 60 cases of every
//!   stream family with all their tournament candidates, where it also
//!   checks that each skipped function's unfiltered lowering carries no
//!   fact (no lock op, call or spawn, no closure, only accesses to its
//!   own declared names) and pins how many functions were analysed and
//!   skipped;
//! - in a proptest that inserts generated filler functions into corpus
//!   programs, where each diagnostic must also keep its severity, rule
//!   and message with its span shifted by the inserted bytes.

use corpus::stream::{CorpusStream, StreamConfig, StreamFamily};
use corpus::CorpusConfig;
use drfix::fleet::derive_case_seed;
use drfix::{DrFix, PipelineConfig, TournamentConfig};
use golite::ast::Decl;
use golite::ParsedFile;
use proptest::prelude::*;
use statcheck::cfg::{self, Context, ContextKind, FileEnv, Op, Paths};
use statcheck::{lints, lockorder, lockset, Diagnostic};
use std::sync::OnceLock;

/// One program: `(file name, source)` pairs.
type Program = Vec<(String, String)>;

/// Functions with a body that the filter analysed and skipped.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    analysed: usize,
    skipped: usize,
}

/// `check_parsed`'s diagnostics computed over every function, file by
/// file. Panics if a function `cfg::relevant` rejects lowers to anything
/// that could reach a report.
fn unfiltered(files: &[ParsedFile], tally: &mut Tally) -> Vec<Vec<Diagnostic>> {
    let env = FileEnv::for_program(files.iter().map(|(_, _, f)| f));
    let mut paths = Paths::default();
    let mut contexts: Vec<Vec<Context>> = files
        .iter()
        .map(|(_, _, f)| cfg::contexts_with(f, &env, &mut paths))
        .collect();
    paths.sort(contexts.iter_mut().flatten());
    for ((name, _, file), ctxs) in files.iter().zip(&contexts) {
        audit(name, file, &env, ctxs, &paths, tally);
    }
    let mut reports = Vec::new();
    let mut analyzed: Vec<lockorder::Analyzed> = Vec::new();
    for (idx, ((_, _, file), ctxs)) in files.iter().zip(&contexts).enumerate() {
        let mut diags = lints::ast_lints(file);
        let mut accesses = Vec::new();
        for ctx in ctxs {
            let mut res = lockset::solve(ctx, &paths);
            diags.append(&mut res.diags);
            accesses.append(&mut res.accesses);
            analyzed.push((idx, ctx.func, ctx.kind, res));
        }
        diags.extend(statcheck::access_lints(&accesses, &paths));
        reports.push(diags);
    }
    for (idx, diag) in lockorder::lock_order_diagnostics(&analyzed, &paths) {
        reports[idx].push(diag);
    }
    for r in &mut reports {
        r.sort_by(|a, b| (a.span.lo, a.span.hi, &a.rule).cmp(&(b.span.lo, b.span.hi, &b.rule)));
        r.dedup();
    }
    reports
}

/// Checks every skipped function of `file` against its unfiltered
/// contexts, and counts analysed and skipped functions.
fn audit(
    name: &str,
    file: &golite::File,
    env: &FileEnv,
    ctxs: &[Context],
    paths: &Paths,
    tally: &mut Tally,
) {
    for d in &file.decls {
        let Decl::Func(f) = d else { continue };
        let Some(body) = &f.body else { continue };
        if cfg::relevant(f, env) {
            tally.analysed += 1;
            continue;
        }
        tally.skipped += 1;
        let inside: Vec<&Context> = ctxs
            .iter()
            .filter(|c| c.span.lo >= body.span.lo && c.span.hi <= body.span.hi)
            .collect();
        let [ctx] = inside.as_slice() else {
            panic!("{name}: skipped `{}` has {} contexts", f.name, inside.len());
        };
        assert_eq!(ctx.kind, ContextKind::Function, "{name}: `{}`", f.name);
        let own = format!("{}::", f.name);
        for op in ctx.cfg.blocks.iter().flat_map(|b| &b.ops) {
            match op {
                Op::Access { path, .. } => {
                    let shown = paths.shown(*path);
                    let root = shown.split('.').next().unwrap_or(shown);
                    assert!(
                        ctx.declares(root) && paths.name(*path).starts_with(&own),
                        "{name}: skipped `{}` accesses `{}`",
                        f.name,
                        paths.name(*path)
                    );
                }
                Op::Exit { .. } => {}
                other => panic!("{name}: skipped `{}` lowers to {other:?}", f.name),
            }
        }
    }
}

/// Parses `files` and requires `check_parsed` to equal the unfiltered
/// analysis; returns the filtered reports.
fn assert_exact(
    label: &str,
    files: &[(String, String)],
    tally: &mut Tally,
) -> Vec<Vec<Diagnostic>> {
    let parsed =
        golite::parse_sources(files).unwrap_or_else(|(i, d)| panic!("{label}: file {i}: {d}"));
    let want = unfiltered(&parsed, tally);
    let got: Vec<Vec<Diagnostic>> = statcheck::check_parsed(&parsed)
        .into_iter()
        .map(|r| r.diagnostics)
        .collect();
    assert_eq!(got, want, "{label}: filtered reports differ");
    got
}

/// The lint corpus, as `tests/statcheck_golden.rs` renders it.
fn lint_corpus() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    let corpus = corpus::generate_eval_corpus(&CorpusConfig {
        eval_cases: 120,
        db_pairs: 0,
        seed: 0xD0F1,
    });
    for case in &corpus {
        out.push((format!("racy {}", case.id), case.files.clone()));
        if let Some(fix) = &case.human_fix {
            let mut fixed = case.files.clone();
            for (name, src) in fix {
                if let Some(slot) = fixed.iter_mut().find(|(n, _)| n == name) {
                    slot.1 = src.clone();
                }
            }
            out.push((format!("human fix {}", case.id), fixed));
        }
    }
    for shape in corpus::lint_shapes() {
        let files = vec![(shape.file.to_owned(), shape.source.to_owned())];
        out.push((format!("lint shape {}", shape.id), files));
    }
    for (name, src, _test) in corpus::sync_heavy_cases() {
        out.push((
            format!("sync-heavy {name}"),
            vec![(format!("{name}.go"), src.to_owned())],
        ));
    }
    for case in corpus::generate_large_heap_corpus(3, 0xD0F1) {
        out.push((format!("large-heap {}", case.id), case.files));
    }
    for case in corpus::generate_churn_corpus(3, 0xD0F1) {
        out.push((format!("churn {}", case.id), case.files));
    }
    out
}

/// The first 60 cases of `family` and every tournament candidate the
/// pool build probes for them, with `drbench`'s fix-service seeds.
fn stream_programs(family: StreamFamily) -> Vec<(String, Program)> {
    let stream = CorpusStream::new(StreamConfig {
        family,
        seed: 0xD27F17,
    });
    let mut out = Vec::new();
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
        out.push((format!("{family:?} case {i}"), case.files.clone()));
        for c in fix.tournament.iter().flat_map(|t| &t.candidates) {
            let patch = c.patch.as_ref().expect("keep_candidates retains patches");
            out.push((
                format!("{family:?} case {i} candidate {}", c.id),
                patch.clone(),
            ));
        }
    }
    out
}

#[test]
fn filtered_reports_equal_the_whole_program_analysis() {
    let mut programs = lint_corpus();
    for family in StreamFamily::all() {
        programs.extend(stream_programs(*family));
    }
    let mut tally = Tally::default();
    for (label, files) in &programs {
        assert_exact(label, files, &mut tally);
    }
    // A change that silently turns the filter off (or widens it) moves
    // these counts.
    assert_eq!(
        tally,
        Tally {
            analysed: 2718,
            skipped: 7184,
        }
    );
}

/// One generated filler statement: `(shape, constant)`.
type FillerStmt = (u8, i64);

/// A function of locals, arithmetic, `if`/`for`/`switch` and literals,
/// named `zzFill{n}` with `zz`-prefixed locals no corpus program uses.
fn filler_func(n: usize, stmts: &[FillerStmt]) -> String {
    let mut body = String::new();
    for (i, &(shape, k)) in stmts.iter().enumerate() {
        let v = format!("zzv{i}");
        body.push_str(&match shape % 6 {
            0 => format!("\t{v} := {k}\n\t_ = {v}*2 + 1\n"),
            1 => format!("\t{v} := {k}\n\tif {v} > {} {{\n\t\t{v} = {v} - 1\n\t}}\n", k / 2),
            2 => format!(
                "\t{v} := 0\n\tfor zzi := 0; zzi < {k}; zzi++ {{\n\t\t{v} += zzi % 3\n\t}}\n"
            ),
            3 => format!(
                "\t{v} := {k}\n\tswitch {v} % 3 {{\n\tcase 0:\n\t\t{v} = 1\n\tdefault:\n\t\t{v} = {v} / 2\n\t}}\n"
            ),
            4 => format!("\t{v} := \"lit{k}\"\n\t_ = {v} + \"x\"\n"),
            _ => format!("\tvar {v} = {k} << 2\n\tzzp = zzp + {v}\n"),
        });
    }
    format!("func zzFill{n}(zzp int) int {{\n{body}\treturn zzp\n}}\n\n")
}

/// Corpus programs for the insertion proptest: racy eval cases, their
/// human fixes and the LintShapes family.
fn insertion_hosts() -> &'static [Program] {
    static HOSTS: OnceLock<Vec<Program>> = OnceLock::new();
    HOSTS.get_or_init(|| {
        lint_corpus()
            .into_iter()
            .filter(|(label, _)| !label.starts_with("large-heap") && !label.starts_with("churn"))
            .map(|(_, files)| files)
            .collect()
    })
}

/// `files` with each filler inserted before a top-level function (or at
/// the end of its file); also returns each file's insertions as
/// `(offset, length)` in the original text.
fn insert_fillers(
    files: &[(String, String)],
    fillers: &[(u64, Vec<FillerStmt>)],
) -> (Program, Vec<Vec<(u32, u32)>>) {
    let mut inserts: Vec<Vec<(u32, String)>> = vec![Vec::new(); files.len()];
    for (n, (at, stmts)) in fillers.iter().enumerate() {
        let file = (*at as usize) % files.len();
        let src = &files[file].1;
        let ast = golite::parse_file(src).expect("host parses");
        let mut points: Vec<u32> = ast
            .decls
            .iter()
            .filter(|d| matches!(d, Decl::Func(_)))
            .map(|d| d.span().lo)
            .collect();
        points.push(src.len() as u32);
        let point = points[(*at as usize / files.len()) % points.len()];
        let mut text = filler_func(n, stmts);
        if point as usize == src.len() && !src.ends_with('\n') {
            text.insert(0, '\n');
        }
        inserts[file].push((point, text));
    }
    let mut out = Vec::new();
    let mut shifts = Vec::new();
    for ((name, src), mut ins) in files.iter().zip(inserts) {
        ins.sort_by_key(|(at, _)| *at);
        let mut text = String::new();
        let mut from = 0;
        for (at, filler) in &ins {
            text.push_str(&src[from..*at as usize]);
            text.push_str(filler);
            from = *at as usize;
        }
        text.push_str(&src[from..]);
        out.push((name.clone(), text));
        shifts.push(ins.iter().map(|(at, f)| (*at, f.len() as u32)).collect());
    }
    (out, shifts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inserted_filler_shifts_spans_and_nothing_else(
        host in 0usize..10_000,
        fillers in collection::vec(
            (any::<u64>(), collection::vec((0u8..6, 1i64..40), 1..10)),
            1..5,
        ),
    ) {
        let hosts = insertion_hosts();
        let files = &hosts[host % hosts.len()];
        let mut tally = Tally::default();
        let before = assert_exact("host", files, &mut tally);
        let (padded, shifts) = insert_fillers(files, &fillers);
        let mut padded_tally = Tally::default();
        let after = assert_exact("padded host", &padded, &mut padded_tally);
        prop_assert_eq!(padded_tally.analysed, tally.analysed);
        prop_assert_eq!(padded_tally.skipped, tally.skipped + fillers.len());
        prop_assert_eq!(before.len(), after.len());
        for ((old, new), shifts) in before.iter().zip(&after).zip(&shifts) {
            prop_assert_eq!(old.len(), new.len());
            for (o, n) in old.iter().zip(new) {
                let by: u32 = shifts.iter().filter(|(at, _)| *at <= o.span.lo).map(|(_, len)| len).sum();
                prop_assert_eq!(
                    (o.severity, &o.rule, &o.message, o.span.lo + by, o.span.hi + by),
                    (n.severity, &n.rule, &n.message, n.span.lo, n.span.hi)
                );
            }
        }
    }
}
