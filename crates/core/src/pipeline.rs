//! The Dr.Fix pipeline: Listing 13's `GetAFix` loop.
//!
//! For each race: reproduce it, extract fix locations (test → leaf →
//! LCA), and for each `(location, scope, example, retry)` combination ask
//! the model for a patch, splice it into the codebase, and validate under
//! many schedules. The first validated patch wins.
//!
//! `DrFix::run_case` is the one per-case sequence. It parses the case
//! once and lends the ASTs to every consumer — detection, race-info
//! extraction, the prompt builder, the model and the splice. ASTs are
//! borrowed, never cloned, and drop before the first validation schedule:
//! what validation sees is text plus each candidate's own parse.

use crate::database::{ExampleDb, RagMode};
use crate::raceinfo::{self, FixLocation, LocationKind, RaceInfo};
use crate::validate::{build_and_gate, run_schedules, ValidationOptions, Verdict};
use golite::ast::{Decl, Import};
use golite::visit::RenamePkg;
use golite::ParsedFile;
use govm::{CompileOptions, SchedulePolicy, StopReason, TestConfig, VmOptions};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::time::Instant;
use synthllm::{Example, Feedback, FixRequest, ModelTier, Prompt, RaceCategory, Scope, SynthLlm};

/// Pipeline configuration — every ablation of §5 is a toggle here.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Model tier (RQ3).
    pub tier: ModelTier,
    /// Retrieval mode (Fig. 3).
    pub rag: RagMode,
    /// Fix locations to attempt, in order (RQ2.5 toggles `Lca`).
    pub locations: Vec<LocationKind>,
    /// Fix scopes to attempt, in order (Fig. 4).
    pub scopes: Vec<Scope>,
    /// Whether validation failures feed back into the next prompt (Fig. 4).
    pub feedback: bool,
    /// Retries per `(location, scope, example)` combination (the paper
    /// restricts to one retry, §5.1).
    pub retries: u32,
    /// Schedules per validation (the paper runs 1000; the default here
    /// keeps benches fast and is configurable).
    pub validation_runs: u32,
    /// Schedules for the initial reproduction.
    pub detect_runs: u32,
    /// Deterministic seed.
    pub seed: u64,
    /// Schedule-exploration policy for the reproduce step. Detection
    /// profits from an aggressive explorer (e.g. PCT) — a race the
    /// scheduler never exposes is reported `NotReproduced`.
    pub detect_policy: SchedulePolicy,
    /// Schedule-exploration policy for validation campaigns — may differ
    /// from detection (the paper's 1000-schedule sweep corresponds to a
    /// broad uniform/sweep exploration).
    pub validate_policy: SchedulePolicy,
    /// Campaign-wide instruction budget per validation (off by default).
    pub validation_step_budget: Option<u64>,
    /// Validation early-exit after this many consecutive replayed
    /// schedule signatures (off by default).
    pub validation_dedup_streak: Option<u32>,
    /// Run the `statcheck` static gate before each dynamic validation,
    /// rejecting candidates whose synchronization is statically
    /// guaranteed broken without spending any schedules on them. The
    /// gate's error tier is sound for rejection, so toggling it never
    /// changes which fixes are found — only how much validation work
    /// broken candidates burn.
    pub static_gate: bool,
    /// When set, cases run through the tournament arm
    /// ([`crate::tournament`]) instead of this module's single-path
    /// loop: multiple candidates per prompt, a statcheck-driven repair
    /// loop, and confidence-ranked winner selection.
    pub tournament: Option<crate::tournament::TournamentConfig>,
    /// Always [`govm::Tier::Stack`], the VM's only exec loop (distinct
    /// from [`tier`](PipelineConfig::tier), the *model* tier). Kept only
    /// because the frozen end-to-end harness sets it in a struct
    /// literal; the next benchmark change deletes it. It stays in the
    /// `Debug` output, so campaign fingerprints are unchanged.
    pub vm_tier: govm::Tier,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            tier: ModelTier::Gpt4Turbo,
            rag: RagMode::Skeleton,
            locations: LocationKind::default_order(),
            scopes: vec![Scope::Func, Scope::File],
            feedback: true,
            retries: 1,
            validation_runs: 16,
            detect_runs: 40,
            seed: 0,
            detect_policy: SchedulePolicy::Random,
            validate_policy: SchedulePolicy::Random,
            validation_step_budget: None,
            validation_dedup_streak: None,
            static_gate: true,
            tournament: None,
            vm_tier: govm::Tier::Stack,
        }
    }
}

/// Why a case produced no patch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The race never reproduced under the detection schedules.
    NotReproduced,
    /// Every candidate patch failed validation (or the model declined).
    Unfixed,
}

/// The outcome of one `GetAFix` run.
#[derive(Debug, Clone, PartialEq)]
pub struct FixOutcome {
    /// Whether a validated patch was produced.
    pub fixed: bool,
    /// The patched codebase on success.
    pub patch: Option<Vec<(String, String)>>,
    /// Strategy of the successful patch.
    pub strategy: Option<synthllm::StrategyKind>,
    /// Location kind that hosted the fix.
    pub location: Option<LocationKind>,
    /// Scope of the successful attempt.
    pub scope: Option<Scope>,
    /// Whether a retrieved example guided the successful attempt.
    pub example_used: bool,
    /// Category of the retrieved example on the successful attempt.
    pub example_category: Option<synthllm::RaceCategory>,
    /// LLM calls made.
    pub llm_calls: u32,
    /// Validation campaigns run.
    pub validations: u32,
    /// Candidates rejected by the static gate (subset of `validations`).
    pub rejected_static: u32,
    /// VM instructions executed across all dynamic validation campaigns.
    pub validation_vm_steps: u64,
    /// Synthetic wall-clock minutes (calibrated to §5.2's 6–29 range).
    pub duration_minutes: f64,
    /// Changed-line count of the accepted patch.
    pub patch_loc: Option<usize>,
    /// Failure classification when unfixed.
    pub failure: Option<FailureKind>,
    /// The reproduced race's bug hash.
    pub bug_hash: Option<String>,
    /// The racy variable from the report.
    pub racy_var: Option<String>,
    /// Tournament trace when the tournament arm ran (`None` on the
    /// single-path loop).
    pub tournament: Option<crate::tournament::TournamentReport>,
}

impl FixOutcome {
    /// The starting outcome of a fix arm for the race `info` describes:
    /// nothing fixed, nothing spent yet.
    pub(crate) fn diagnosed(info: &RaceInfo) -> FixOutcome {
        FixOutcome {
            bug_hash: Some(info.bug_hash.clone()),
            racy_var: Some(info.racy_var.clone()),
            ..FixOutcome::blank()
        }
    }

    fn blank() -> FixOutcome {
        FixOutcome {
            fixed: false,
            patch: None,
            strategy: None,
            location: None,
            scope: None,
            example_used: false,
            example_category: None,
            llm_calls: 0,
            validations: 0,
            rejected_static: 0,
            validation_vm_steps: 0,
            duration_minutes: 0.0,
            patch_loc: None,
            failure: None,
            bug_hash: None,
            racy_var: None,
            tournament: None,
        }
    }
}

/// What [`DrFix::run_case`] found and did on one case.
pub(crate) struct CaseRun {
    /// Why the detection campaign stopped.
    pub(crate) stop: StopReason,
    /// VM instructions spent detecting.
    pub(crate) detect_vm_steps: u64,
    /// Detector shadow-memory high-water during detection.
    pub(crate) peak_shadow_bytes: u64,
    /// The first race detection exposed.
    pub(crate) race: Option<racedet::RaceReport>,
    /// The fix arm's outcome; `None` in detect-only runs.
    pub(crate) fix: Option<FixOutcome>,
    /// Seconds spent detecting (parse and compile included), diagnosing,
    /// in the fix arm's static half (the whole single-path loop), and
    /// deciding the tournament.
    pub(crate) phase_seconds: [f64; 4],
}

/// The Dr.Fix system: configuration plus the example database.
pub struct DrFix<'db> {
    pub(crate) cfg: PipelineConfig,
    pub(crate) db: Option<&'db ExampleDb>,
}

impl<'db> DrFix<'db> {
    /// Creates a pipeline. `db` may be `None` only for [`RagMode::None`].
    pub fn new(cfg: PipelineConfig, db: Option<&'db ExampleDb>) -> Self {
        DrFix { cfg, db }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Runs the full loop on one case: `files` is the codebase, `test`
    /// the test that exercises the race. A thin wrapper over the one
    /// per-case sequence the campaign workers run too.
    pub fn fix_case(&self, files: &[(String, String)], test: &str) -> FixOutcome {
        self.run_case(files, test, true)
            .fix
            .expect("fix mode always decides")
    }

    /// The crate's one detect → diagnose → fix → validate sequence. The
    /// sources are parsed once; detection, diagnosis and the fix arm
    /// borrow the ASTs, which drop before any candidate is validated.
    /// With `fix` unset the case is only detected: no diagnosis, no fix
    /// arm, and [`CaseRun::fix`] is `None`.
    pub(crate) fn run_case(&self, files: &[(String, String)], test: &str, fix: bool) -> CaseRun {
        let mut run = CaseRun {
            stop: StopReason::Completed,
            detect_vm_steps: 0,
            peak_shadow_bytes: 0,
            race: None,
            fix: None,
            phase_seconds: [0.0; 4],
        };
        let mut clock = Instant::now();
        let mut lap = |run: &mut CaseRun, phase: usize| {
            let now = Instant::now();
            run.phase_seconds[phase] += (now - clock).as_secs_f64();
            clock = now;
        };
        // Sources that do not parse or build cannot reproduce a race: the
        // detection campaign folds as a completed zero-step run.
        let parsed = golite::parse_sources(files).ok();
        let detected = parsed.as_ref().and_then(|parsed| {
            let prog = govm::compile_package(parsed, &CompileOptions::default()).ok()?;
            Some(self.detect_outcome(&prog, test))
        });
        if let Some(out) = detected {
            run.stop = out.stop;
            run.detect_vm_steps = out.counters.vm_steps;
            run.peak_shadow_bytes = out.counters.peak_shadow_bytes;
            run.race = out.races.into_iter().next();
        }
        lap(&mut run, 0);
        if !fix {
            return run;
        }
        let (Some(parsed), Some(report)) = (parsed, &run.race) else {
            run.fix = Some(Self::unreproduced_outcome());
            return run;
        };
        let info = raceinfo::extract_parsed(report, &parsed);
        lap(&mut run, 1);
        let Some(tcfg) = &self.cfg.tournament else {
            run.fix = Some(self.fix_single_path(&parsed, test, &info));
            lap(&mut run, 2);
            return run;
        };
        let build = self.tournament_pool(&parsed, &info, tcfg);
        // Validation works from text: release the ASTs first.
        drop(parsed);
        lap(&mut run, 2);
        run.fix = Some(self.tournament_decide(test, &info, tcfg, build));
        lap(&mut run, 3);
        run
    }

    /// The outcome of a case whose race never reproduced under the
    /// detection schedules — identical whichever arm would have run.
    fn unreproduced_outcome() -> FixOutcome {
        FixOutcome {
            duration_minutes: 4.0,
            failure: Some(FailureKind::NotReproduced),
            ..FixOutcome::blank()
        }
    }

    /// The single-path loop (Listing 13) over the case's parsed sources:
    /// one candidate per `(location, scope, example, retry)`, validated at
    /// once; the first validated patch wins.
    pub(crate) fn fix_single_path(
        &self,
        parsed: &[ParsedFile],
        test: &str,
        info: &RaceInfo,
    ) -> FixOutcome {
        let mut out = FixOutcome::diagnosed(info);
        let llm = SynthLlm::new(self.cfg.tier, self.cfg.seed);
        for site in self.sites(parsed, info) {
            for arm in &site.arms {
                let mut feedback: Vec<Feedback> = Vec::new();
                for _attempt in 0..=self.cfg.retries {
                    let shown = if self.cfg.feedback {
                        feedback.clone()
                    } else {
                        Vec::new()
                    };
                    let req = site.request(info, arm, shown);
                    out.llm_calls += 1;
                    let resp = llm.generate(&req, &site.prompt);
                    let Some(new_code) = resp.code else {
                        break; // the model declined this arm
                    };
                    let file = &site.loc.file;
                    let spliced = splice(parsed, site.loc, site.scope, &new_code).and_then(|src| {
                        let ast = golite::parse_file(&src).map_err(|e| e.to_string())?;
                        Ok((src, ast))
                    });
                    let (src, ast) = match spliced {
                        Ok(s) => s,
                        Err(e) => {
                            feedback.push(Feedback {
                                strategy: resp.strategy,
                                message: format!("build failed: {e}"),
                            });
                            continue;
                        }
                    };
                    let patched = patched_sources(parsed, file, &src);
                    out.validations += 1;
                    // Each validation campaign samples a fresh schedule
                    // set: deriving the seed from the attempt ordinal is
                    // what lets feedback retries escape schedule-sampling
                    // luck.
                    let validation_seed = crate::fleet::derive_validation_seed(
                        self.cfg.seed,
                        &info.bug_hash,
                        out.validations,
                    );
                    // The candidate's parse is dropped before any
                    // schedule runs.
                    let built = build_and_gate(
                        &patched_view(parsed, &patched, file, &ast),
                        test,
                        &ValidationOptions {
                            static_gate: self.cfg.static_gate,
                        },
                    );
                    drop(ast);
                    let report = match built {
                        Ok((prog, outcome)) => run_schedules(
                            &prog,
                            test,
                            &info.bug_hash,
                            &self.validation_config(validation_seed),
                            outcome,
                        ),
                        Err(outcome) => outcome,
                    };
                    out.validation_vm_steps += report.vm_steps;
                    if report.rejected_static {
                        out.rejected_static += 1;
                    }
                    match report.verdict {
                        Verdict::Ok => {
                            out.fixed = true;
                            out.patch_loc = Some(patch_loc(parsed, file, &src));
                            out.patch = Some(patched);
                            out.strategy = resp.strategy;
                            out.location = Some(site.loc.kind);
                            out.scope = Some(site.scope);
                            out.example_used = arm.is_some();
                            out.example_category = arm.as_ref().map(|(_, c)| *c);
                            out.duration_minutes = duration_minutes(out.llm_calls, out.validations);
                            return out;
                        }
                        Verdict::Fail(msg) => {
                            feedback.push(Feedback {
                                strategy: resp.strategy,
                                message: msg,
                            });
                        }
                    }
                }
            }
        }
        out.failure = Some(FailureKind::Unfixed);
        out.duration_minutes = duration_minutes(out.llm_calls, out.validations);
        out
    }

    /// Runs the detection campaign on the compiled case, returning the
    /// full [`govm`] test outcome (stop reason, counters, any exposed
    /// races).
    pub(crate) fn detect_outcome(&self, prog: &govm::Program, test: &str) -> govm::TestOutcome {
        let cfg = TestConfig {
            runs: self.cfg.detect_runs,
            seed: self.cfg.seed,
            stop_on_race: true,
            policy: self.cfg.detect_policy.clone(),
            ..TestConfig::default()
        };
        govm::run_test_many(prog, test, &cfg)
    }

    /// The validation campaign a candidate runs under `seed`.
    pub(crate) fn validation_config(&self, seed: u64) -> TestConfig {
        TestConfig {
            runs: self.cfg.validation_runs,
            seed,
            stop_on_race: false,
            policy: self.cfg.validate_policy.clone(),
            max_total_steps: self.cfg.validation_step_budget,
            dedup_streak: self.cfg.validation_dedup_streak,
            vm: VmOptions::default(),
        }
    }

    /// The `(location, scope)` sites both fix arms prompt at, in attempt
    /// order: configured location kinds, the locations of each kind in
    /// extraction order, then the configured scopes. Lazy, so a loop that
    /// stops early builds no later prompt.
    pub(crate) fn sites<'a>(
        &'a self,
        parsed: &'a [ParsedFile],
        info: &'a RaceInfo,
    ) -> impl Iterator<Item = Site<'a>> + 'a {
        let (cfg, db): (&'a PipelineConfig, Option<&'a ExampleDb>) = (&self.cfg, self.db);
        cfg.locations
            .iter()
            .flat_map(move |&kind| {
                // Visible files: internal code only (§5.6: races whose
                // frames sit in external/vendored code do not fit the
                // workflow).
                info.locations
                    .iter()
                    .filter(move |l| l.kind == kind && !l.file.starts_with("vendor_"))
            })
            .flat_map(move |loc| {
                cfg.scopes
                    .iter()
                    .filter_map(move |&scope| Site::new(cfg, db, parsed, info, loc, scope))
            })
    }
}

/// One `(location, scope)` the fix arms prompt at: the prompt, its one
/// parse, and the example arms retrieval offers for it.
pub(crate) struct Site<'a> {
    pub(crate) loc: &'a FixLocation,
    pub(crate) scope: Scope,
    /// The prompt code (`FixRequest::code`).
    code: String,
    /// The prompt parsed once — the case's AST of the original file at
    /// file scope, the wrapper's own parse at function scope — with the
    /// model work every request on it shares.
    pub(crate) prompt: Prompt<'a>,
    context_funcs: usize,
    /// The empty example first (§4.4), then the retrieved one, if any —
    /// retrieval only helps when the empty example fails (§5.7.1).
    pub(crate) arms: Vec<Option<(Example, RaceCategory)>>,
}

impl<'a> Site<'a> {
    /// Builds the site's prompt from the case's parse of `loc.file`;
    /// `None` when the file or the function is not there.
    fn new(
        cfg: &PipelineConfig,
        db: Option<&ExampleDb>,
        parsed: &'a [ParsedFile],
        info: &RaceInfo,
        loc: &'a FixLocation,
        scope: Scope,
    ) -> Option<Site<'a>> {
        let (_, src, file) = parsed.iter().find(|(n, _, _)| n == &loc.file)?;
        let (code, prompt, context_funcs) = match scope {
            Scope::File => (src.clone(), Cow::Borrowed(file), file.funcs().count()),
            Scope::Func => {
                let code = func_scope_wrapper(file, &loc.function)?;
                // Printed from an AST, so it parses.
                let prompt = golite::parse_file(&code).ok()?;
                (code, Cow::Owned(prompt), 1)
            }
        };
        let mut arms = vec![None];
        if cfg.rag != RagMode::None {
            if let Some((ex, cat, _score)) =
                db.and_then(|db| db.retrieve(cfg.rag, &code, &info.racy_var, &loc.lines))
            {
                arms.push(Some((ex, cat)));
            }
        }
        Some(Site {
            loc,
            scope,
            code,
            prompt: Prompt::new(prompt),
            context_funcs,
            arms,
        })
    }

    /// The prompt for one example arm with the given feedback.
    pub(crate) fn request(
        &self,
        info: &RaceInfo,
        arm: &Option<(Example, RaceCategory)>,
        feedback: Vec<Feedback>,
    ) -> FixRequest {
        FixRequest {
            code: self.code.clone(),
            scope: self.scope,
            racy_var: info.racy_var.clone(),
            racy_lines: self.loc.lines.clone(),
            example: arm.as_ref().map(|(e, _)| e.clone()),
            feedback,
            context_funcs: self.context_funcs,
            focus_func: Some(self.loc.function.clone()),
            case_key: info.bug_hash.clone(),
        }
    }
}

/// Splices the model's output for `loc` at `scope` into the original
/// file and returns the patched file's text. File-scope output is the
/// whole file, taken as is; function-scope output is a wrapper, parsed
/// here once and spliced into the case's parse of the original.
pub(crate) fn splice(
    parsed: &[ParsedFile],
    loc: &FixLocation,
    scope: Scope,
    new_code: &str,
) -> Result<String, String> {
    match scope {
        Scope::File => Ok(new_code.to_owned()),
        Scope::Func => {
            let (_, _, original) = parsed
                .iter()
                .find(|(n, _, _)| n == &loc.file)
                .ok_or("location file vanished")?;
            let wrapper = golite::parse_file(new_code).map_err(|e| e.to_string())?;
            splice_func_patch(original, wrapper, &loc.function)
        }
    }
}

/// The case's sources with `file` rewritten to `src`.
pub(crate) fn patched_sources(
    parsed: &[ParsedFile],
    file: &str,
    src: &str,
) -> Vec<(String, String)> {
    parsed
        .iter()
        .map(|(name, orig, _)| {
            let text = if name == file { src } else { orig };
            (name.clone(), text.to_owned())
        })
        .collect()
}

/// A patched codebase as `(name, source, ast)` triples for the compiler
/// and the analyzer: `ast`, the parse of the rewritten `file`, stands for
/// that file and the case's originals for every other.
pub(crate) fn patched_view<'a>(
    parsed: &'a [ParsedFile],
    patched: &[(String, String)],
    file: &str,
    ast: &'a golite::File,
) -> Vec<(String, String, &'a golite::File)> {
    parsed
        .iter()
        .zip(patched)
        .map(|((name, _, orig), (_, src))| {
            let ast = if name == file { ast } else { orig };
            (name.clone(), src.clone(), ast)
        })
        .collect()
}

/// Changed-line count of a patch that rewrote `file` to `src`.
pub(crate) fn patch_loc(parsed: &[ParsedFile], file: &str, src: &str) -> usize {
    parsed
        .iter()
        .find(|(n, _, _)| n == file)
        .map_or(0, |(_, orig, _)| corpus::diff_lines(orig, src))
}

/// Builds the `Scope::Func` prompt wrapper: a one-function file carrying
/// the original file's imports (aliases preserved — the model must see
/// the same local names the function body uses) plus the focus function.
pub fn func_scope_wrapper(parsed: &golite::ast::File, func_name: &str) -> Option<String> {
    let f = parsed.find_func(func_name)?;
    let mut wrapper = String::from("package p\n\n");
    for imp in &parsed.imports {
        match &imp.alias {
            Some(alias) => wrapper.push_str(&format!("import {alias} \"{}\"\n", imp.path)),
            None => wrapper.push_str(&format!("import \"{}\"\n", imp.path)),
        }
    }
    wrapper.push('\n');
    wrapper.push_str(&golite::print_func(f));
    wrapper.push('\n');
    Some(wrapper)
}

/// Splices a function-scope patch — the model's wrapper file, holding the
/// revised function plus any new imports, globals and types — into the
/// original file and prints the result. The wrapper's parse is consumed;
/// the original is borrowed and printed around the revised function, never
/// cloned.
pub fn splice_func_patch(
    original: &golite::File,
    mut patch: golite::File,
    func_name: &str,
) -> Result<String, String> {
    // Merge imports. Paths are compared, but the *binding* is the local
    // name (alias, or the path's last segment): when both files import
    // the same path under different locals, the wrapper's declarations
    // must be rewritten to the original's qualifier — otherwise an
    // unaliased `import "sync"` merged into a file holding `sy "sync"`
    // leaves the spliced body referencing an unbound `sync.`. Imports the
    // wrapper adds count as present for its later imports, so a path it
    // imports twice merges once.
    let local_name = |alias: &Option<String>, path: &str| -> String {
        alias
            .clone()
            .unwrap_or_else(|| path.rsplit('/').next().unwrap_or(path).to_owned())
    };
    let mut added: Vec<usize> = Vec::new();
    let mut renames: Vec<(String, String)> = Vec::new();
    for (i, imp) in patch.imports.iter().enumerate() {
        let incoming = local_name(&imp.alias, &imp.path);
        let existing = original
            .imports
            .iter()
            .chain(added.iter().map(|&j| &patch.imports[j]))
            .find(|e| e.path == imp.path);
        match existing {
            None => added.push(i),
            Some(existing) => {
                let bound = local_name(&existing.alias, &existing.path);
                if bound != incoming {
                    renames.push((incoming, bound));
                }
            }
        }
    }
    for (from, to) in &renames {
        let mut r = RenamePkg { from, to };
        for d in &mut patch.decls {
            r.rename_decl(d);
        }
    }

    let is_target = |d: &Decl| matches!(d, Decl::Func(f) if f.name == func_name);
    let new_func = patch
        .decls
        .iter()
        .find(|d| is_target(d))
        .ok_or_else(|| format!("patch lost function `{func_name}`"))?;
    let at = original
        .decls
        .iter()
        .position(is_target)
        .ok_or_else(|| format!("original lost function `{func_name}`"))?;
    // Carry over new top-level declarations (mutex globals, helper
    // types) as one block in wrapper order, ahead of the original's: a
    // `var` must stay below the `type` it references.
    let same = |a: &Decl, b: &Decl| match (a, b) {
        (Decl::Func(x), Decl::Func(y)) => x.name == y.name,
        (Decl::Type(x), Decl::Type(y)) => x.name == y.name,
        (Decl::Var(x) | Decl::Const(x), Decl::Var(y) | Decl::Const(y)) => x.names == y.names,
        _ => false,
    };
    let mut carried: Vec<&Decl> = Vec::new();
    for d in &patch.decls {
        if !original.decls.iter().any(|o| same(o, d)) && !carried.iter().any(|c| same(c, d)) {
            carried.push(d);
        }
    }
    let imports: Vec<&Import> = original
        .imports
        .iter()
        .chain(added.iter().map(|&i| &patch.imports[i]))
        .collect();
    let decls = original
        .decls
        .iter()
        .enumerate()
        .map(|(i, d)| if i == at { new_func } else { d });
    Ok(golite::print_file_parts(
        &original.package,
        &imports,
        carried.into_iter().chain(decls),
    ))
}

/// Synthetic fix duration, calibrated so successful fixes land in the
/// paper's 6/13/14/29 min (min/avg/median/max) envelope (§5.2).
pub(crate) fn duration_minutes(llm_calls: u32, validations: u32) -> f64 {
    4.0 + 0.9 * llm_calls as f64 + 0.55 * validations as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splice_text(original: &str, wrapper: &str, func: &str) -> Result<String, String> {
        let original = golite::parse_file(original).unwrap();
        splice_func_patch(&original, golite::parse_file(wrapper).unwrap(), func)
    }

    #[test]
    fn integrates_func_patch_with_new_globals() {
        let orig = "package app\n\nfunc Work() {\n\tx := 1\n\t_ = x\n}\n\nfunc Other() {\n}\n";
        let wrapper = "package p\n\nimport \"sync\"\n\nvar mu sync.Mutex\n\nfunc Work() {\n\tmu.Lock()\n\tx := 1\n\t_ = x\n\tmu.Unlock()\n}\n";
        let merged = splice_text(orig, wrapper, "Work").unwrap();
        assert!(merged.contains("import \"sync\""), "{merged}");
        assert!(merged.contains("var mu sync.Mutex"), "{merged}");
        assert!(merged.contains("mu.Lock()"), "{merged}");
        assert!(merged.contains("func Other()"), "{merged}");
        golite::parse_file(&merged).unwrap();
    }

    #[test]
    fn carried_declarations_keep_wrapper_order() {
        // The wrapper declares a type and then a var of that type: the
        // merged file must keep the type above the var.
        let orig = "package app\n\nfunc Work() {\n\tx := 1\n\t_ = x\n}\n";
        let wrapper = concat!(
            "package p\n\n",
            "type Guard struct {\n\tn int\n}\n\n",
            "var g Guard\n\n",
            "var mu int\n\n",
            "func Work() {\n\tx := 2\n\t_ = x\n}\n",
        );
        let merged = splice_text(orig, wrapper, "Work").unwrap();
        let type_at = merged.find("type Guard").expect("type carried");
        let var_at = merged.find("var g Guard").expect("var carried");
        let mu_at = merged.find("var mu").expect("second var carried");
        assert!(
            type_at < var_at && var_at < mu_at,
            "carried decls out of wrapper order:\n{merged}"
        );
        golite::parse_file(&merged).unwrap();
    }

    #[test]
    fn duplicate_wrapper_declarations_are_carried_once() {
        let orig = "package app\n\nfunc Work() {\n}\n";
        let wrapper =
            "package p\n\nvar mu int\n\nvar mu int\n\nfunc Work() {\n\tmu = 1\n\t_ = mu\n}\n";
        let merged = splice_text(orig, wrapper, "Work").unwrap();
        assert_eq!(merged.matches("var mu").count(), 1, "{merged}");
    }

    #[test]
    fn func_wrapper_preserves_import_aliases() {
        let src = concat!(
            "package app\n\n",
            "import (\n\tsy \"sync\"\n\t\"testing\"\n)\n\n",
            "func Work() {\n\tvar mu sy.Mutex\n\tmu.Lock()\n\tmu.Unlock()\n}\n\n",
            "func TestWork(t *testing.T) {\n\tWork()\n}\n",
        );
        let parsed = golite::parse_file(src).unwrap();
        let wrapper = func_scope_wrapper(&parsed, "Work").unwrap();
        assert!(
            wrapper.contains("import sy \"sync\""),
            "alias dropped from wrapper:\n{wrapper}"
        );
        // The wrapper must itself parse, with the alias bound.
        golite::parse_file(&wrapper).unwrap();
    }

    #[test]
    fn merged_imports_respect_original_alias() {
        // The original binds the sync path under `sy`; the wrapper's
        // unaliased `import "sync"` must not smuggle an unbound `sync.`
        // qualifier into the merged file.
        let orig = concat!(
            "package app\n\n",
            "import sy \"sync\"\n\n",
            "var seen sy.Map\n\n",
            "func Work() {\n\tx := 1\n\t_ = x\n}\n",
        );
        let wrapper = concat!(
            "package p\n\n",
            "import \"sync\"\n\n",
            "var mu sync.Mutex\n\n",
            "func Work() {\n\tmu.Lock()\n\tx := 1\n\t_ = x\n\tmu.Unlock()\n\tvar g sync.WaitGroup\n\t_ = g\n}\n",
        );
        let merged = splice_text(orig, wrapper, "Work").unwrap();
        assert!(!merged.contains("sync."), "unbound qualifier:\n{merged}");
        assert!(!merged.contains("import \"sync\""), "{merged}");
        assert_eq!(merged.matches("\"sync\"").count(), 1, "{merged}");
        assert!(merged.contains("var mu sy.Mutex"), "{merged}");
        assert!(merged.contains("var g sy.WaitGroup"), "{merged}");
        golite::parse_file(&merged).unwrap();
    }

    #[test]
    fn merged_imports_keep_wrapper_alias_for_new_paths() {
        // A path the original does not import keeps the wrapper's own
        // binding untouched.
        let orig = "package app\n\nfunc Work() {\n}\n";
        let wrapper = concat!(
            "package p\n\n",
            "import at \"sync/atomic\"\n\n",
            "var n int64\n\n",
            "func Work() {\n\tat.AddInt64(&n, 1)\n}\n",
        );
        let merged = splice_text(orig, wrapper, "Work").unwrap();
        assert!(merged.contains("at \"sync/atomic\""), "{merged}");
        assert!(merged.contains("at.AddInt64(&n, 1)"), "{merged}");
        golite::parse_file(&merged).unwrap();
    }

    #[test]
    fn func_patch_requires_the_function() {
        let orig = "package app\n\nfunc Work() {\n}\n";
        let wrapper = "package p\n\nfunc Elsewhere() {\n}\n";
        assert!(splice_text(orig, wrapper, "Work").is_err());
    }

    #[test]
    fn wrapper_importing_a_new_path_twice_merges_it_once() {
        // The second import of a path the wrapper itself adds is already
        // present: it merges once, and a differing alias is rewritten to
        // the first binding.
        let orig = "package app\n\nfunc Work() {\n}\n";
        let wrapper = concat!(
            "package p\n\n",
            "import (\n\t\"sync\"\n\t\"sync\"\n\tsy \"sync\"\n)\n\n",
            "var mu sync.Mutex\n\n",
            "func Work() {\n\tmu.Lock()\n\tvar wg sy.WaitGroup\n\t_ = wg\n\tmu.Unlock()\n}\n",
        );
        let merged = splice_text(orig, wrapper, "Work").unwrap();
        assert_eq!(merged.matches("\"sync\"").count(), 1, "{merged}");
        assert!(merged.contains("var wg sync.WaitGroup"), "{merged}");
        assert!(!merged.contains("sy."), "{merged}");
        golite::parse_file(&merged).unwrap();
    }

    /// A site whose prompt does not parse is never built, so the prompt
    /// never reaches the model and costs no model call in either arm. A
    /// function-scope prompt is printed from the case's AST and so always
    /// reparses; the test breaks it by planting an import path the printer
    /// cannot quote.
    #[test]
    fn unparseable_prompt_never_reaches_the_model() {
        let src = concat!(
            "package app\n\n",
            "import (\n\t\"sync\"\n\t\"testing\"\n)\n\n",
            "func Work() int {\n\tn := 0\n\tvar wg sync.WaitGroup\n\twg.Add(2)\n",
            "\tgo func() {\n\t\tdefer wg.Done()\n\t\tn = n + 1\n\t}()\n",
            "\tgo func() {\n\t\tdefer wg.Done()\n\t\tn = n + 2\n\t}()\n",
            "\twg.Wait()\n\treturn n\n}\n\n",
            "func TestWork(t *testing.T) {\n\tWork()\n}\n",
        );
        let drfix = DrFix::new(
            PipelineConfig {
                scopes: vec![Scope::Func],
                ..PipelineConfig::default()
            },
            None,
        );
        let mut parsed = golite::parse_sources(&[("a.go".to_owned(), src.to_owned())]).unwrap();
        let prog = govm::compile_package(&parsed, &CompileOptions::default()).unwrap();
        let detected = drfix.detect_outcome(&prog, "TestWork");
        let report = detected.races.first().expect("the race reproduces");
        let info = raceinfo::extract_parsed(report, &parsed);
        let tcfg = crate::TournamentConfig::default();
        let calls = |parsed: &[ParsedFile]| {
            let single = drfix.fix_single_path(parsed, "TestWork", &info);
            let build = drfix.tournament_pool(parsed, &info, &tcfg);
            let tournament = drfix.tournament_decide("TestWork", &info, &tcfg, build);
            (single.llm_calls, tournament.llm_calls)
        };

        // A sound prompt reaches the model in both arms.
        assert!(drfix.sites(&parsed, &info).count() > 0);
        let (single, tournament) = calls(&parsed);
        assert!(single > 0 && tournament > 0, "{single} {tournament}");

        parsed[0].2.imports[0].path = "sy\"nc".into();
        let wrapper = func_scope_wrapper(&parsed[0].2, "Work").unwrap();
        assert!(golite::parse_file(&wrapper).is_err(), "{wrapper}");
        assert_eq!(drfix.sites(&parsed, &info).count(), 0);
        assert_eq!(calls(&parsed), (0, 0));
        let out = drfix.fix_single_path(&parsed, "TestWork", &info);
        assert_eq!(out.validations, 0);
        assert_eq!(out.failure, Some(FailureKind::Unfixed));
    }

    #[test]
    fn patch_loc_counts_changes() {
        let parsed =
            golite::parse_sources(&[("a.go".to_owned(), "package a\n\nvar x int\n".to_owned())])
                .unwrap();
        assert_eq!(
            patch_loc(&parsed, "a.go", "package a\n\nvar y int\nvar z int\n"),
            3
        );
    }
}
