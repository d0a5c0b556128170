//! The tournament arm of the pipeline: multi-candidate generation with
//! an iterated static-repair loop.
//!
//! The single-path loop in [`crate::pipeline`] is the paper's Listing 13
//! and stays the golden reference: one candidate per `(location, scope,
//! example, retry)` combination, first validated patch wins. The
//! tournament arm instead collects a pool of up to `MAX_CANDIDATES`
//! candidates per combination from the same
//! [`SynthLlm::enumerate`] call, ranked by per-candidate confidence,
//! iterates each candidate against `statcheck` diagnostics until
//! lint-clean or `REPAIR_MAX_ITERS` repairs are spent — spending
//! **zero** dynamic schedules on that loop — and only then validates
//! survivors in rank order under schedule-diverse campaigns, stopping
//! at the first clean one. The rank is `(confidence, patch-LoC)` with a
//! deterministic id tie-break, so outcomes are bit-identical at any
//! thread count.
//!
//! Two invariants matter:
//!
//! - **Superset of single-path.** The pool always contains every
//!   candidate the single-path loop would have validated: enumeration
//!   reuses the same capability dice (race-keyed, so attempt and arm
//!   don't change the roll), and repair outputs are *appended* as new
//!   candidates rather than replacing their parent — a repair can never
//!   evict a patch single-path would have accepted.
//! - **Zero schedules on lint.** The repair loop consults only the
//!   `statcheck` probe each candidate gets on entering the pool;
//!   candidates whose final probe
//!   still carries error-tier findings are rejected without running a
//!   single VM instruction. Warning-tier findings trigger repair but
//!   never rejection (they are heuristic, and must not override a
//!   dynamically-clean patch).

use crate::pipeline::{
    patch_loc, patched_sources, patched_view, splice, DrFix, FailureKind, FixOutcome, Site, RETRIES,
};
use crate::raceinfo::{LocationKind, RaceInfo};
use crate::validate::{
    probe_parsed, validate_patch_report, StaticProbe, ValidationOptions, Verdict,
};
use golite::ParsedFile;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use synthllm::{Candidate, Feedback, RaceCategory, Scope, StrategyKind, SynthLlm};

/// Configuration of the tournament arm. `None` on
/// [`crate::PipelineConfig::tournament`] keeps the single-path loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TournamentConfig {
    /// Retain every candidate's patched sources in the report (tests use
    /// this to re-validate losers; costs memory, off by default).
    pub keep_candidates: bool,
}

/// Candidates enumerated per `(location, scope, example)` request. Must
/// exceed the single-path window for the superset guarantee: feedback
/// exclusions can shift single-path's ranking window by one.
const MAX_CANDIDATES: usize = 8;
const _: () = assert!(MAX_CANDIDATES > crate::pipeline::SINGLE_PATH_WINDOW);

/// Repair iterations per candidate lineage before lint findings are
/// final (error tier → rejected, warning tier → proceed anyway).
const REPAIR_MAX_ITERS: u32 = 2;

/// What happened to one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// Won the tournament: validation-clean and best-ranked.
    Won,
    /// Rejected by the static gate's error tier — zero VM steps spent.
    RejectedStatic {
        /// The lint rule that condemned it.
        rule: String,
    },
    /// Validated and failed dynamically.
    FailedValidation {
        /// The validator's failure message.
        reason: String,
    },
    /// Validated clean but ranked after the winner. The tournament
    /// stops at its first clean candidate, so it no longer produces this.
    Outranked,
    /// Never validated (ranked after the winner).
    NotValidated,
}

/// Per-candidate accounting in the tournament report.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateReport {
    /// Enumeration id (position in discovery order; the tie-break key).
    pub id: usize,
    /// Strategy the candidate applied.
    pub strategy: StrategyKind,
    /// Fix-location kind that hosted it.
    pub location: LocationKind,
    /// Prompt scope it was generated under.
    pub scope: Scope,
    /// Whether a retrieved example guided it.
    pub example_used: bool,
    /// Model-reported confidence in `(0, 1]`.
    pub confidence: f64,
    /// Changed-line count of its patch.
    pub patch_loc: usize,
    /// Repair iterations in this candidate's lineage (0 = original).
    pub repair_iters: u32,
    /// Final disposition.
    pub outcome: CandidateOutcome,
    /// The candidate's patched sources, when
    /// [`TournamentConfig::keep_candidates`] is set.
    pub patch: Option<Vec<(String, String)>>,
}

/// The full tournament trace attached to [`FixOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentReport {
    /// Every distinct candidate, in discovery order (id = index).
    pub candidates: Vec<CandidateReport>,
    /// Id of the winning candidate, if any.
    pub winner: Option<usize>,
    /// Total repair iterations spent across all lineages.
    pub repair_iters: u32,
    /// Static probes run (the whole repair loop's cost — all zero-VM).
    pub lint_probes: u32,
    /// Model outputs offered to the pool: every enumerated candidate and
    /// every repair that changed its code.
    pub outputs_seen: u32,
    /// Outputs spliced: those not already spliced under the same key (see
    /// [`TournamentReport::outputs_seen`]; a repeat is skipped unspliced).
    pub outputs_spliced: u32,
}

/// The tournament ranking: confidence (desc), then patch LoC (asc),
/// then enumeration id (asc). The id tie-break is what pins ties
/// deterministically — ids follow discovery order, which depends only
/// on the seed and the case, never on thread count.
pub fn candidate_rank(a: (f64, usize, usize), b: (f64, usize, usize)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// One pool candidate: what ranking, validation and the report need.
pub(crate) struct PoolEntry {
    strategy: StrategyKind,
    confidence: f64,
    kind: LocationKind,
    scope: Scope,
    example_used: bool,
    example_category: Option<RaceCategory>,
    patched: Vec<(String, String)>,
    ploc: usize,
    repair_iters: u32,
    probe: StaticProbe,
}

impl PoolEntry {
    /// Whether the repair loop will work on this candidate: its probe
    /// found something, and the sources still parse.
    fn has_findings(&self) -> bool {
        !self.probe.clean() && !self.probe.broken
    }
}

/// Where a candidate with repair work came from: its site, the example
/// arm and enumeration pass of its request, and the model's output.
/// Kept only while its repair chain may still run.
struct Lineage {
    site: usize,
    arm: usize,
    pass: u32,
    cand: Candidate,
}

/// The feedback of enumeration pass `pass`. Synthetic feedback
/// reproduces the attempt ordinal without naming a failed strategy:
/// exclusions only shrink the ranking, and the pool already holds the
/// whole window.
fn pass_feedback(pass: u32) -> Vec<Feedback> {
    (0..pass)
        .map(|_| Feedback {
            strategy: None,
            message: "prior candidate failed validation".into(),
        })
        .collect()
}

/// The output of the tournament's static half (phases 1–2): the
/// candidate pool in discovery order plus the accounting accrued while
/// building it — text only, no AST, so the case's ASTs can drop before
/// `tournament_decide` runs a single schedule.
pub(crate) struct PoolBuild {
    pool: Vec<PoolEntry>,
    llm_calls: u32,
    lint_probes: u32,
    total_repairs: u32,
    outputs_seen: u32,
    outputs_spliced: u32,
}

/// What a splice reads besides the case: the file it rewrites, the
/// function it replaces (`None` at file scope, where the output is the
/// file verbatim) and the model's output. Equal keys splice equally.
struct SpliceKey {
    hash: u64,
    file: String,
    func: Option<String>,
    code: String,
}

/// Admits candidates to the pool: skips an output already spliced under
/// the same [`SpliceKey`], splices the rest, drops a splice whose patched
/// sources repeat a pooled candidate's byte for byte, and parses and
/// probes what remains. A repeated key costs no splice; a duplicate
/// splice costs no parse; each parse is dropped right after its probe, so
/// the pool holds text only. Both dedups filter by hash and confirm by
/// equality; the patched-source one compares against the pool's own text.
struct Admission<'a> {
    parsed: &'a [ParsedFile],
    /// Hash of each pool entry's patched sources, parallel to the pool:
    /// every admitted candidate is pushed to the pool.
    hashes: Vec<u64>,
    /// Every output spliced so far.
    spliced: Vec<SpliceKey>,
    lint_probes: u32,
    outputs_seen: u32,
}

/// An admitted candidate: its patched sources, patch LoC and probe.
type Admitted = (Vec<(String, String)>, usize, StaticProbe);

impl Admission<'_> {
    /// `None` when `code` was spliced under the same key before, does not
    /// splice at `site`, repeats a candidate in `pool`, or leaves a file
    /// that does not parse (whole-file output is taken verbatim; a spliced
    /// function is printed, so it parses). Skipping a repeated key loses
    /// nothing: the first splice under it either failed, as a second
    /// would, or left its patched sources in the pool, which a second
    /// would repeat.
    fn admit(&mut self, pool: &[PoolEntry], site: &Site, code: &str) -> Option<Admitted> {
        debug_assert_eq!(self.hashes.len(), pool.len());
        self.outputs_seen += 1;
        let file = &site.loc.file;
        let func = (site.scope == Scope::Func).then_some(site.loc.function.as_str());
        let mut hasher = DefaultHasher::new();
        (file, func, code).hash(&mut hasher);
        let hash = hasher.finish();
        let mut spliced = self.spliced.iter();
        if spliced.any(|k| {
            k.hash == hash && k.code == code && k.func.as_deref() == func && k.file == *file
        }) {
            return None;
        }
        self.spliced.push(SpliceKey {
            hash,
            file: file.clone(),
            func: func.map(str::to_owned),
            code: code.to_owned(),
        });
        let src = splice(self.parsed, site.loc, site.scope, code).ok()?;
        let patched = patched_sources(self.parsed, file, &src);
        let mut hasher = DefaultHasher::new();
        patched.hash(&mut hasher);
        let hash = hasher.finish();
        let mut known = self.hashes.iter().zip(pool);
        if known.any(|(&h, e)| h == hash && e.patched == patched) {
            return None;
        }
        let ast = golite::parse_file(&src).ok()?;
        let probe = probe_parsed(&patched_view(self.parsed, &patched, file, &ast));
        self.lint_probes += 1;
        self.hashes.push(hash);
        Some((patched, patch_loc(self.parsed, file, &src), probe))
    }
}

impl DrFix<'_> {
    /// Phases 1–2: enumerate the candidate pool and run the iterated
    /// static-repair loop over the case's parsed sources. Consults only
    /// the synthetic model and `statcheck` — **zero VM instructions**.
    ///
    /// Sites are built one at a time. A site — its prompt parse included —
    /// is kept past its enumeration only while one of its candidates
    /// still has repair work, and so is a candidate's lineage.
    pub(crate) fn tournament_pool(&self, parsed: &[ParsedFile], info: &RaceInfo) -> PoolBuild {
        let mut llm_calls = 0u32;
        let llm = SynthLlm::new(self.cfg.tier, self.cfg.seed);
        let mut admission = Admission {
            parsed,
            hashes: Vec::new(),
            spliced: Vec::new(),
            lint_probes: 0,
            outputs_seen: 0,
        };

        // ── Phase 1: enumerate the candidate pool ────────────────────
        //
        // Same (location, scope, example) sweep as single-path, but each
        // request enumerates up to `MAX_CANDIDATES` ranked candidates
        // instead of committing to the top one. A second pass per arm
        // replays the request under synthetic attempt-1 feedback: the
        // capability dice key mislocalisation on the attempt ordinal, so
        // this is exactly the extra chance single-path's feedback retry
        // gets — without it the pool could miss a retry-only win. Every
        // admitted candidate is probed on entry.
        let mut pool: Vec<PoolEntry> = Vec::new();
        // Parallel to the base candidates; `None` once (or when) a
        // candidate has no repair work.
        let mut lineage: Vec<Option<Lineage>> = Vec::new();
        // Indexed by site; `None` once a site has no repair work.
        let mut sites: Vec<Option<Site>> = Vec::new();
        let passes: u32 = if self.cfg.feedback { RETRIES + 1 } else { 1 };
        for site in self.sites(parsed, info) {
            let s = sites.len();
            let first = lineage.len();
            for (a, arm) in site.arms.iter().enumerate() {
                for pass in 0..passes {
                    let req = site.request(info, arm, pass_feedback(pass));
                    llm_calls += 1;
                    for cand in llm.enumerate(&req, &site.prompt, MAX_CANDIDATES) {
                        let Some((patched, ploc, probe)) =
                            admission.admit(&pool, &site, &cand.code)
                        else {
                            continue;
                        };
                        let entry = PoolEntry {
                            strategy: cand.strategy,
                            confidence: cand.confidence,
                            kind: site.loc.kind,
                            scope: site.scope,
                            example_used: arm.is_some(),
                            example_category: arm.as_ref().map(|(_, c)| *c),
                            patched,
                            ploc,
                            repair_iters: 0,
                            probe,
                        };
                        let repairs = entry.has_findings();
                        lineage.push(repairs.then_some(Lineage {
                            site: s,
                            arm: a,
                            pass,
                            cand,
                        }));
                        pool.push(entry);
                    }
                }
            }
            let repairs = lineage[first..].iter().any(Option::is_some);
            sites.push(repairs.then_some(site));
        }

        // ── Phase 2: iterated repair against statcheck ───────────────
        //
        // Findings (errors *or* warnings) trigger a bounded repair chain.
        // Repaired code joins the pool as a fresh candidate — the parent
        // stays, preserving the superset invariant — and the chain
        // continues from the newest link. Not one VM instruction is
        // spent here.
        let mut total_repairs = 0u32;
        for i in 0..lineage.len() {
            let Some(mut from) = lineage[i].take() else {
                continue;
            };
            let site = sites[from.site]
                .as_ref()
                .expect("a site with repair work is kept");
            let req = site.request(info, &site.arms[from.arm], pass_feedback(from.pass));
            let mut current = i;
            let mut iter = 0u32;
            while iter < REPAIR_MAX_ITERS && pool[current].has_findings() {
                let probe = &pool[current].probe;
                let rule = probe.first_rule.clone().unwrap_or_else(|| "unknown".into());
                llm_calls += 1;
                let Some(rep) = llm.repair(&req, &site.prompt, &from.cand, &rule, iter) else {
                    break;
                };
                iter += 1;
                total_repairs += 1;
                if rep.code == from.cand.code {
                    break; // the model reproduced itself: converged
                }
                // Converged onto an already-known candidate, or broken.
                let Some((patched, ploc, probe)) = admission.admit(&pool, site, &rep.code) else {
                    break;
                };
                let parent = &pool[current];
                pool.push(PoolEntry {
                    strategy: rep.strategy,
                    confidence: rep.confidence,
                    kind: parent.kind,
                    scope: parent.scope,
                    example_used: parent.example_used,
                    example_category: parent.example_category,
                    patched,
                    ploc,
                    repair_iters: iter,
                    probe,
                });
                from.cand = rep;
                current = pool.len() - 1;
            }
            // Base candidates come in site order: past the last one with
            // repair work at this site, its prompt is done with.
            let next = lineage[i + 1..].iter().flatten().next();
            if next.map(|l| l.site) != Some(from.site) {
                sites[from.site] = None;
            }
        }
        PoolBuild {
            pool,
            llm_calls,
            lint_probes: admission.lint_probes,
            total_repairs,
            outputs_seen: admission.outputs_seen,
            outputs_spliced: admission.spliced.len() as u32,
        }
    }

    /// Phase 3: rank the pool, validate survivors under schedule-diverse
    /// campaigns, crown the winner, and assemble the [`FixOutcome`].
    /// This is the tournament's only dynamic phase.
    pub(crate) fn tournament_decide(
        &self,
        test: &str,
        info: &RaceInfo,
        tcfg: &TournamentConfig,
        build: PoolBuild,
    ) -> FixOutcome {
        let PoolBuild {
            pool,
            llm_calls,
            lint_probes,
            total_repairs,
            outputs_seen,
            outputs_spliced,
        } = build;
        let mut out = FixOutcome {
            llm_calls,
            ..FixOutcome::diagnosed(info)
        };

        // ── Phase 3: rank, validate survivors, crown the winner ──────
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by(|&a, &b| {
            candidate_rank(
                (pool[a].confidence, pool[a].ploc, a),
                (pool[b].confidence, pool[b].ploc, b),
            )
        });

        let mut outcomes: Vec<CandidateOutcome> = vec![CandidateOutcome::NotValidated; pool.len()];
        let mut winner: Option<usize> = None;
        // Validate in rank order and stop at the first clean candidate.
        for &i in &order {
            let entry = &pool[i];
            // The error tier is sound for rejection: condemned
            // candidates burn zero schedules (this is the per-candidate
            // gate accounting the single-path gate does per attempt).
            if entry.probe.broken || entry.probe.errors > 0 {
                out.validations += 1;
                out.rejected_static += 1;
                outcomes[i] = CandidateOutcome::RejectedStatic {
                    rule: entry
                        .probe
                        .first_rule
                        .clone()
                        .unwrap_or_else(|| "unparseable".into()),
                };
                continue;
            }
            out.validations += 1;
            let validation_seed = crate::fleet::derive_validation_seed(
                self.cfg.seed,
                &info.bug_hash,
                // Key the campaign on the candidate id, not the sweep
                // position: the schedule set a candidate faces must not
                // depend on which others entered or left the pool.
                i as u32 + 1,
            );
            let vreport = validate_patch_report(
                &entry.patched,
                test,
                &info.bug_hash,
                &self.validation_config(validation_seed),
                // The probe analysed exactly these sources and found no
                // error, so the static gate could only pass.
                &ValidationOptions { static_gate: false },
            );
            out.validation_vm_steps += vreport.vm_steps;
            out.replayed_schedules += vreport.replayed_schedules;
            match vreport.verdict {
                Verdict::Ok => {
                    winner = Some(i);
                    outcomes[i] = CandidateOutcome::Won;
                    break;
                }
                Verdict::Fail(msg) => {
                    outcomes[i] = CandidateOutcome::FailedValidation { reason: msg };
                }
            }
        }

        let candidates: Vec<CandidateReport> = pool
            .iter()
            .enumerate()
            .map(|(i, e)| CandidateReport {
                id: i,
                strategy: e.strategy,
                location: e.kind,
                scope: e.scope,
                example_used: e.example_used,
                confidence: e.confidence,
                patch_loc: e.ploc,
                repair_iters: e.repair_iters,
                outcome: outcomes[i].clone(),
                patch: tcfg.keep_candidates.then(|| e.patched.clone()),
            })
            .collect();

        if let Some(w) = winner {
            let e = &pool[w];
            out.fixed = true;
            out.patch_loc = Some(e.ploc);
            out.patch = Some(e.patched.clone());
            out.strategy = Some(e.strategy);
            out.location = Some(e.kind);
            out.scope = Some(e.scope);
            out.example_used = e.example_used;
            out.example_category = e.example_category;
        } else {
            out.failure = Some(FailureKind::Unfixed);
        }
        out.tournament = Some(TournamentReport {
            candidates,
            winner,
            repair_iters: total_repairs,
            lint_probes,
            outputs_seen,
            outputs_spliced,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_prefers_confidence_then_loc_then_id() {
        use std::cmp::Ordering;
        // Higher confidence wins regardless of LoC.
        assert_eq!(candidate_rank((0.9, 50, 3), (0.5, 2, 0)), Ordering::Less);
        // Equal confidence: smaller patch wins.
        assert_eq!(candidate_rank((0.7, 3, 5), (0.7, 9, 1)), Ordering::Less);
        // Full tie: earlier enumeration id wins (the determinism pin).
        assert_eq!(candidate_rank((0.7, 3, 2), (0.7, 3, 4)), Ordering::Less);
        assert_eq!(candidate_rank((0.7, 3, 4), (0.7, 3, 2)), Ordering::Greater);
        assert_eq!(candidate_rank((0.7, 3, 2), (0.7, 3, 2)), Ordering::Equal);
    }

    /// The function-scope splice as it was before ASTs were borrowed:
    /// parse both files, edit the original's AST in place, print it. The
    /// reference the borrowed-original splice must reproduce.
    fn reference_integrate_func_patch(
        original: &str,
        wrapper: &str,
        func_name: &str,
    ) -> Result<String, String> {
        use golite::ast::Decl;
        use golite::visit::RenamePkg;
        let mut orig = golite::parse_file(original).map_err(|e| e.to_string())?;
        let mut patch = golite::parse_file(wrapper).map_err(|e| e.to_string())?;
        let local_name = |alias: &Option<String>, path: &str| -> String {
            alias
                .clone()
                .unwrap_or_else(|| path.rsplit('/').next().unwrap_or(path).to_owned())
        };
        let mut renames: Vec<(String, String)> = Vec::new();
        for imp in &patch.imports {
            let incoming = local_name(&imp.alias, &imp.path);
            match orig.imports.iter().find(|i| i.path == imp.path) {
                None => orig.imports.push(imp.clone()),
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
        let new_func = patch
            .find_func(func_name)
            .ok_or_else(|| format!("patch lost function `{func_name}`"))?
            .clone();
        let mut replaced = false;
        for d in &mut orig.decls {
            if let Decl::Func(f) = d {
                if f.name == func_name {
                    *d = Decl::Func(new_func.clone());
                    replaced = true;
                    break;
                }
            }
        }
        if !replaced {
            return Err(format!("original lost function `{func_name}`"));
        }
        let mut carried: Vec<Decl> = Vec::new();
        for d in &patch.decls {
            let known = |decls: &[Decl]| {
                decls.iter().any(|od| match (od, d) {
                    (Decl::Func(of), Decl::Func(f)) => of.name == f.name,
                    (Decl::Type(ot), Decl::Type(t)) => ot.name == t.name,
                    (Decl::Var(ov) | Decl::Const(ov), Decl::Var(v) | Decl::Const(v)) => {
                        ov.names == v.names
                    }
                    _ => false,
                })
            };
            if !known(&orig.decls) && !known(&carried) {
                carried.push(d.clone());
            }
        }
        orig.decls.splice(0..0, carried);
        Ok(golite::print_file(&orig))
    }

    /// Calls `f` on each of the first `n` cases of `family` whose race
    /// reproduces, with `drbench`'s fix-service seeds and tournament: the
    /// case index, its pipeline, its parse and its race.
    fn raced_cases(
        family: corpus::stream::StreamFamily,
        n: usize,
        mut f: impl FnMut(usize, &DrFix, &[ParsedFile], &RaceInfo),
    ) {
        use corpus::stream::{CorpusStream, StreamConfig};
        let stream = CorpusStream::new(StreamConfig {
            family,
            seed: 0xD27F17,
        });
        for i in 0..n {
            let case = stream.case(i);
            let drfix = DrFix::new(
                crate::PipelineConfig {
                    seed: crate::fleet::derive_case_seed(0, i as u64),
                    detect_runs: 12,
                    tournament: Some(TournamentConfig::default()),
                    ..crate::PipelineConfig::default()
                },
                None,
            );
            let parsed = golite::parse_sources(&case.files).expect("stream cases parse");
            let prog = govm::compile_package(&parsed, &govm::CompileOptions::default())
                .expect("stream cases compile");
            let outcome = drfix.detect_outcome(&prog, &case.test);
            let Some(report) = outcome.races.first() else {
                continue;
            };
            let info = crate::raceinfo::extract_parsed(report, &parsed);
            f(i, &drfix, &parsed, &info);
        }
    }

    #[test]
    fn borrowed_splice_matches_the_reference_on_a_mixed_stream() {
        let mut compared = 0;
        raced_cases(
            corpus::stream::StreamFamily::Mixed,
            60,
            |i, drfix, parsed, info| {
                // Every candidate the pool build can splice at function
                // scope: each enumeration, and each repair iteration of it.
                let llm = SynthLlm::new(drfix.cfg.tier, drfix.cfg.seed);
                for site in drfix.sites(parsed, info) {
                    if site.scope != Scope::Func {
                        continue;
                    }
                    let file = parsed.iter().find(|(n, _, _)| n == &site.loc.file);
                    let (_, src, _) = file.expect("the site's file");
                    let func = &site.loc.function;
                    for arm in &site.arms {
                        for pass in 0..=RETRIES {
                            let req = site.request(info, arm, pass_feedback(pass));
                            for cand in llm.enumerate(&req, &site.prompt, MAX_CANDIDATES) {
                                let repairs = (0..REPAIR_MAX_ITERS).filter_map(|iter| {
                                    llm.repair(&req, &site.prompt, &cand, "inconsistent-lock", iter)
                                });
                                let codes: Vec<String> = std::iter::once(cand.code.clone())
                                    .chain(repairs.map(|r| r.code))
                                    .collect();
                                for code in codes {
                                    let want = reference_integrate_func_patch(src, &code, func);
                                    assert!(want.is_ok(), "case {i}: {want:?}");
                                    assert_eq!(
                                        splice(parsed, site.loc, site.scope, &code),
                                        want,
                                        "case {i}: the splice diverged from the reference"
                                    );
                                    compared += 1;
                                }
                            }
                        }
                    }
                }
            },
        );
        assert!(
            compared > 200,
            "only {compared} function-scope candidates compared"
        );
    }

    /// A site's shared [`synthllm::Prompt`] answers every request exactly
    /// as a fresh prompt would: over every arm, pass and repair iteration
    /// of the pool build, `enumerate` (its first candidate, as the
    /// single-path loop takes it, and its whole window) and `repair`
    /// through the site's one prompt equal the same calls on a new prompt
    /// each.
    #[test]
    fn the_prompt_cache_changes_no_model_output() {
        use corpus::stream::StreamFamily;
        use synthllm::Prompt;
        let same =
            |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| format!("{a:?}") == format!("{b:?}");
        let mut compared = 0;
        for family in [StreamFamily::Mixed, StreamFamily::Tournament] {
            raced_cases(family, 60, |i, drfix, parsed, info| {
                let llm = SynthLlm::new(drfix.cfg.tier, drfix.cfg.seed);
                for site in drfix.sites(parsed, info) {
                    let shared = &site.prompt;
                    let fresh = || Prompt::new(std::borrow::Cow::Borrowed(shared.file()));
                    for arm in &site.arms {
                        for pass in 0..=RETRIES {
                            let req = site.request(info, arm, pass_feedback(pass));
                            let window = crate::pipeline::SINGLE_PATH_WINDOW;
                            let first = llm.enumerate(&req, shared, window).next();
                            let want = llm.enumerate(&req, &fresh(), window).next();
                            assert!(same(&first, &want), "case {i}: first candidate");
                            let cands: Vec<_> =
                                llm.enumerate(&req, shared, MAX_CANDIDATES).collect();
                            let want: Vec<_> =
                                llm.enumerate(&req, &fresh(), MAX_CANDIDATES).collect();
                            assert!(same(&cands, &want), "case {i}: enumerate");
                            for cand in &cands {
                                for rule in ["inconsistent-lock", "double-lock"] {
                                    for iter in 0..REPAIR_MAX_ITERS {
                                        let got = llm.repair(&req, shared, cand, rule, iter);
                                        let want = llm.repair(&req, &fresh(), cand, rule, iter);
                                        assert!(same(&got, &want), "case {i}: repair");
                                        compared += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
        assert!(compared > 500, "only {compared} repairs compared");
    }

    /// The report counts the outputs offered and the outputs spliced; a
    /// repeated splice key is skipped, so the second count is lower, and
    /// every pooled candidate was spliced and probed once.
    #[test]
    fn report_counts_outputs_seen_and_spliced() {
        use corpus::stream::{CorpusStream, StreamConfig, StreamFamily};
        let stream = CorpusStream::new(StreamConfig {
            family: StreamFamily::Mixed,
            seed: 0xD27F17,
        });
        let (mut seen, mut spliced, mut pooled) = (0, 0, 0);
        for i in 0..30 {
            let case = stream.case(i);
            let drfix = DrFix::new(
                crate::PipelineConfig {
                    seed: crate::fleet::derive_case_seed(0, i as u64),
                    detect_runs: 12,
                    tournament: Some(TournamentConfig::default()),
                    ..crate::PipelineConfig::default()
                },
                None,
            );
            let out = drfix.fix_case(&case.files, &case.test);
            let Some(t) = out.tournament else { continue };
            assert!(t.outputs_seen >= t.outputs_spliced, "case {i}");
            assert!(t.outputs_spliced >= t.lint_probes, "case {i}");
            assert_eq!(t.lint_probes as usize, t.candidates.len(), "case {i}");
            seen += t.outputs_seen;
            spliced += t.outputs_spliced;
            pooled += t.lint_probes;
        }
        assert!(
            pooled > 0 && spliced > pooled,
            "{spliced} spliced, {pooled} pooled"
        );
        assert!(seen > 2 * spliced, "{seen} seen, {spliced} spliced");
    }

    #[test]
    fn rank_sorts_a_roster_deterministically() {
        let mut order: Vec<usize> = (0..4).collect();
        let rows = [(0.5, 4, 0), (0.9, 9, 1), (0.9, 2, 2), (0.5, 4, 3)];
        order.sort_by(|&a, &b| candidate_rank(rows[a], rows[b]));
        assert_eq!(order, vec![2, 1, 0, 3]);
    }
}
