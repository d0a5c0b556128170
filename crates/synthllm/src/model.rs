//! The synthetic LLM: prompt in, complete revised source out.
//!
//! [`SynthLlm::enumerate`] is the model's one generation call and mirrors
//! the paper's prompt contract (Appendix E): each candidate it yields is
//! the entire revised code, nothing else. Internally the model (1)
//! diagnoses the racy code, (2) infers the repair idiom of the retrieved
//! example (if any) from the example's own diff, (3) ranks candidate
//! strategies by structural confidence × tier prior × example guidance,
//! (4) rolls deterministic capability dice for mis-localisation and
//! botching, and (5) applies a *real* AST rewrite, lazily, one ranked
//! strategy at a time. The single-path loop takes the first candidate;
//! the tournament takes the whole window.

use crate::capability::{draw, CapabilityModel, ModelTier};
use crate::diagnose::{Diagnosis, Target};
use crate::strategy::StrategyKind;
use crate::{FixRequest, Prompt, RaceCategory, Scope};

/// One candidate patch the model answers a prompt with (§4.4): a
/// complete revised source plus the model's self-reported confidence.
///
/// Confidence is a *prior* — structural fit times tier skill, scaled to
/// the best-ranked candidate — and deliberately ignores the botch dice:
/// a model does not know when it has botched.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Full revised code.
    pub code: String,
    /// The strategy applied.
    pub strategy: StrategyKind,
    /// The diagnosis target the strategy was applied to (needed to
    /// re-apply the same strategy during repair).
    pub target: Target,
    /// Self-reported confidence in `(0, 1]`.
    pub confidence: f64,
}

/// The synthetic LLM.
#[derive(Debug, Clone)]
pub struct SynthLlm {
    cap: CapabilityModel,
    seed: u64,
}

impl SynthLlm {
    /// Creates a model of the given tier with a sampling seed.
    pub fn new(tier: ModelTier, seed: u64) -> Self {
        SynthLlm {
            cap: CapabilityModel::new(tier),
            seed,
        }
    }

    /// The tier.
    pub fn tier(&self) -> ModelTier {
        self.cap.tier()
    }

    /// Enumerates up to `max` candidate patches for one request, best
    /// ranked first. `prompt` is `req.code` parsed: the caller builds a
    /// [`Prompt`] once and every call on it shares its parse and its
    /// cached model work.
    ///
    /// The candidates come lazily: a strategy is rendered only when the
    /// iterator reaches it, and one that structurally does not apply
    /// (e.g. needs the type declaration, invisible at function scope) is
    /// skipped, like an LLM revising its plan. The single-path loop takes
    /// the first candidate of a short window; the tournament collects the
    /// whole window. The iterator is empty when the model declines.
    pub fn enumerate<'s>(
        &'s self,
        req: &'s FixRequest,
        prompt: &'s Prompt<'s>,
        max: usize,
    ) -> impl Iterator<Item = Candidate> + 's {
        let diags = prompt.diagnoses(&req.racy_var);
        let (ranked, example_idiom) = self.rank_diagnoses(req, &diags);
        let top_score = ranked.first().map(|(s, _)| *s).unwrap_or(1.0).max(1e-9);

        // Mis-localisation roll (file scope only).
        let misloc_p = self.cap.mislocalisation(
            req.scope == Scope::File,
            req.context_funcs,
            req.example.is_some(),
            !req.feedback.is_empty(),
        );
        let attempt_tag = format!("attempt{}", req.feedback.len());
        let misloc_roll = draw(
            self.seed,
            &[&req.case_key, &req.racy_var, &attempt_tag],
            "misloc",
        );
        // Lost in the middle: the model rewrites a plausible-looking but
        // wrong site; the emitted code changes nothing relevant. That
        // degraded no-op is the request's only candidate.
        let slipped = ranked
            .first()
            .filter(|_| misloc_roll < misloc_p)
            .map(|&(_, top)| Candidate {
                code: prompt.printed().to_owned(),
                strategy: diags[top].strategy,
                target: diags[top].target.clone(),
                confidence: 0.05,
            });
        let window = if slipped.is_some() { 0 } else { max };

        // Per-race comprehension (§5.3): without a matching example some
        // races are simply misunderstood — every unguided attempt botches.
        let comprehends =
            draw(self.seed, &[&req.case_key], "comprehend") < self.cap.comprehension();

        let applied = ranked
            .into_iter()
            .take(window)
            .filter_map(move |(score, d)| {
                let diag = &diags[d];
                let botch = self.roll_botch(req, diag, example_idiom, comprehends);
                let code = prompt.render(diag.strategy, &diag.target, botch).ok()?;
                Some(Candidate {
                    code,
                    strategy: diag.strategy,
                    target: diag.target.clone(),
                    confidence: 0.2 + 0.8 * (score / top_score),
                })
            });
        slipped.into_iter().chain(applied)
    }

    /// Revises an earlier candidate against a static-analyzer finding
    /// (the tournament's bounded repair loop). The lint rule pinpoints
    /// the defect, so the retry rolls *guided* dice — unlike a bare
    /// retry, which would deterministically repeat the same mistake —
    /// but a repair can still botch. Returns `None` when the strategy no
    /// longer applies to the request code. `prompt` is `req.code` parsed,
    /// as for [`SynthLlm::enumerate`].
    pub fn repair(
        &self,
        req: &FixRequest,
        prompt: &Prompt,
        cand: &Candidate,
        rule: &str,
        iter: u32,
    ) -> Option<Candidate> {
        let skill = self.cap.effective_skill(cand.strategy, true);
        let tag = format!("repair{iter}");
        let roll = draw(
            self.seed,
            &[&req.case_key, &req.racy_var, cand.strategy.display(), rule],
            &tag,
        );
        let botch = if roll < skill { 0 } else { 1 };
        let code = prompt.render(cand.strategy, &cand.target, botch).ok()?;
        Some(Candidate {
            code,
            ..cand.clone()
        })
    }

    /// The prompt's diagnoses still in play for the request, ranked best
    /// first as `(score, index into diags)`, plus the idiom of the
    /// retrieved example. The ranking is empty when the model declines.
    fn rank_diagnoses(
        &self,
        req: &FixRequest,
        diags: &[Diagnosis],
    ) -> (Vec<(f64, usize)>, Option<StrategyKind>) {
        // Strategies that already failed (feedback loop, §4.4.2).
        let failed: Vec<StrategyKind> = req.feedback.iter().filter_map(|f| f.strategy).collect();
        // Infer the example's idiom from its own before/after diff.
        let example_idiom = req
            .example
            .as_ref()
            .and_then(|e| classify_example(&e.buggy, &e.fixed));

        let mut ranked: Vec<(f64, usize)> = diags
            .iter()
            .enumerate()
            // The prompt points at one function (leaf/test/LCA location):
            // function-level diagnoses elsewhere are out of focus. Type-
            // and global-level repairs stay visible from any location.
            .filter(|(_, d)| match (&req.focus_func, d.target.func()) {
                (Some(focus), Some(f)) => f == focus,
                _ => true,
            })
            .filter(|(_, d)| !failed.contains(&d.strategy))
            .map(|(i, d)| {
                let mut score = d.score * (0.4 + 0.6 * self.cap.skill(d.strategy));
                if let Some(idiom) = example_idiom {
                    if idiom == d.strategy {
                        score += 1.0;
                    } else if category_of(idiom) == d.category {
                        score += 0.25;
                    }
                }
                (score, i)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        (ranked, example_idiom)
    }

    /// The guided/anchored skill model plus the race-keyed botch roll
    /// for one ranked diagnosis. Returns the botch level (0 = clean).
    fn roll_botch(
        &self,
        req: &FixRequest,
        diag: &Diagnosis,
        example_idiom: Option<StrategyKind>,
        comprehends: bool,
    ) -> u8 {
        // The example guides only when its idiom matches a structurally
        // plausible candidate; an example from the wrong pattern
        // *anchors* the model on an inapplicable fix instead (this is
        // why raw-text retrieval barely helps, Fig. 3).
        let guided = example_idiom == Some(diag.strategy) && diag.score >= 0.65;
        let skill = if guided {
            self.cap.effective_skill(diag.strategy, true)
        } else if comprehends {
            let s = self.cap.effective_skill(diag.strategy, false);
            if example_idiom.is_some() && example_idiom != Some(diag.strategy) {
                s * 0.75 // mild distraction
            } else {
                s
            }
        } else {
            // Misunderstood or anchored race: the patch looks plausible
            // but misses the point.
            0.0
        };
        // Keyed on the race, not the attempt: the model repeats its own
        // mistake if asked to try the same strategy again.
        let botch_roll = draw(
            self.seed,
            &[&req.case_key, &req.racy_var, diag.strategy.display()],
            "botch",
        );
        if botch_roll < skill {
            0
        } else {
            1
        }
    }
}

/// Maps a strategy to its home category (for soft example matching).
pub fn category_of(s: StrategyKind) -> RaceCategory {
    use StrategyKind::*;
    match s {
        RedeclareInGoroutine | LocalCopyInGoroutine | PassParamToGoroutine | ChannelResult => {
            RaceCategory::CaptureByReference
        }
        PrivatizeLoopVar => RaceCategory::LoopVarCapture,
        MoveWgAddBeforeGo | MutexGuard | RwMutexGuard | AtomicCounter | BlanketMutex => {
            RaceCategory::MissingSync
        }
        MapToSyncMap => RaceCategory::ConcurrentMap,
        PerCaseInstance => RaceCategory::ParallelTest,
        StructCopy | FreshSourcePerUse => RaceCategory::Other,
    }
}

/// Infers the repair idiom of a `(buggy, fixed)` example from its textual
/// diff — the mechanism by which a retrieved example "nudges" the model
/// toward a family of solutions (§5.3).
pub fn classify_example(buggy: &str, fixed: &str) -> Option<StrategyKind> {
    let added = |needle: &str| fixed.matches(needle).count() > buggy.matches(needle).count();

    if added("sync.Map") {
        return Some(StrategyKind::MapToSyncMap);
    }
    if added("atomic.") {
        return Some(StrategyKind::AtomicCounter);
    }
    if added("sync.RWMutex") {
        return Some(StrategyKind::RwMutexGuard);
    }
    // Self-shadowing rebind `x := x`.
    if has_self_rebind(fixed) && !has_self_rebind(buggy) {
        return Some(StrategyKind::PrivatizeLoopVar);
    }
    if added("make(chan") && buggy.contains("select") {
        return Some(StrategyKind::ChannelResult);
    }
    if added("drfixMu") {
        return Some(StrategyKind::BlanketMutex);
    }
    if added("sync.Mutex") || added(".Lock()") {
        return Some(StrategyKind::MutexGuard);
    }
    if added("NewSource") {
        return Some(StrategyKind::FreshSourcePerUse);
    }
    if added(":= *") {
        return Some(StrategyKind::StructCopy);
    }
    if added("local") {
        return Some(StrategyKind::LocalCopyInGoroutine);
    }
    // wg.Add moved before the launch.
    if wg_add_before_go(fixed) && !wg_add_before_go(buggy) {
        return Some(StrategyKind::MoveWgAddBeforeGo);
    }
    // Parameter added to a goroutine literal.
    if added("go func(") && fixed.contains("go func(") && !buggy.contains("go func(") {
        return Some(StrategyKind::PassParamToGoroutine);
    }
    // Constructor duplicated per case.
    for ctor in ["md5.New()", "NewReader(", "New()"] {
        if fixed.matches(ctor).count() > buggy.matches(ctor).count()
            && fixed.matches(ctor).count() >= 2
            && buggy.matches(ctor).count() <= 1
        {
            return Some(StrategyKind::PerCaseInstance);
        }
    }
    // More `:=` inside goroutines without new sync — redeclaration.
    if fixed.matches(":=").count() > buggy.matches(":=").count() && buggy.contains("go func") {
        return Some(StrategyKind::RedeclareInGoroutine);
    }
    None
}

fn has_self_rebind(src: &str) -> bool {
    src.lines().any(|l| {
        let l = l.trim();
        if let Some((lhs, rhs)) = l.split_once(":=") {
            let lhs = lhs.trim();
            let rhs = rhs.trim();
            !lhs.is_empty() && lhs == rhs && lhs.chars().all(|c| c.is_alphanumeric() || c == '_')
        } else {
            false
        }
    })
}

fn wg_add_before_go(src: &str) -> bool {
    let add = src.find(".Add(");
    let go = src.find("go func");
    matches!((add, go), (Some(a), Some(g)) if a < g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Example, Feedback};
    use std::borrow::Cow;

    const ERR_RACE: &str = r#"package p

import "sync"

func F() error {
	err := work()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err = task(); err != nil {
			note()
		}
	}()
	if err = task2(); err != nil {
		note()
	}
	wg.Wait()
	return err
}

func work() error  { return nil }
func task() error  { return nil }
func task2() error { return nil }
func note()        {}
"#;

    fn prompt(r: &FixRequest) -> Prompt<'static> {
        Prompt::new(Cow::Owned(
            golite::parse_file(&r.code).expect("prompt parses"),
        ))
    }

    /// The model's first candidate: what the single-path loop validates.
    fn first(llm: &SynthLlm, r: &FixRequest) -> Option<Candidate> {
        llm.enumerate(r, &prompt(r), 4).next()
    }

    fn req(code: &str, var: &str) -> FixRequest {
        FixRequest {
            code: code.to_owned(),
            scope: Scope::File,
            racy_var: var.to_owned(),
            racy_lines: vec![],
            example: None,
            feedback: vec![],
            context_funcs: 2,
            focus_func: None,
            case_key: format!("case-{var}"),
        }
    }

    #[test]
    fn generates_redeclare_fix_for_err_race() {
        let llm = SynthLlm::new(ModelTier::O1Preview, 3);
        let r = req(ERR_RACE, "err");
        let cand = first(&llm, &r).expect("fix produced");
        let code = cand.code;
        assert_eq!(cand.strategy, StrategyKind::RedeclareInGoroutine);
        assert!(code.contains("if err := task()"), "{code}");
        // The parent assignment stays `=`.
        assert!(code.contains("if err = task2()"), "{code}");
    }

    #[test]
    fn response_reparses() {
        let llm = SynthLlm::new(ModelTier::O1Preview, 3);
        let r = req(ERR_RACE, "err");
        let cand = first(&llm, &r).expect("fix produced");
        golite::parse_file(&cand.code).expect("model output must be valid code");
    }

    #[test]
    fn deterministic_given_seed() {
        let llm = SynthLlm::new(ModelTier::Gpt4o, 11);
        let r = req(ERR_RACE, "err");
        let a = first(&llm, &r).expect("fix produced");
        let b = first(&llm, &r).expect("fix produced");
        assert_eq!(a.code, b.code);
        assert_eq!(a.strategy, b.strategy);
    }

    #[test]
    fn feedback_removes_failed_strategy() {
        let llm = SynthLlm::new(ModelTier::O1Preview, 3);
        let mut r = req(ERR_RACE, "err");
        r.feedback.push(Feedback {
            strategy: Some(StrategyKind::RedeclareInGoroutine),
            message: "tests still race".into(),
        });
        let strategy = first(&llm, &r).map(|c| c.strategy);
        assert_ne!(strategy, Some(StrategyKind::RedeclareInGoroutine));
    }

    #[test]
    fn matching_example_boosts_its_idiom() {
        // An example whose fix is a mutex guard should steer the model
        // away from redeclaration.
        let llm = SynthLlm::new(ModelTier::Gpt4o, 5);
        let mut r = req(ERR_RACE, "err");
        r.example = Some(Example {
            buggy: "package p\nfunc g() {\n\tx := 0\n\tgo func() {\n\t\tx = 1\n\t}()\n}\n".into(),
            fixed: "package p\nimport \"sync\"\nvar muX sync.Mutex\nfunc g() {\n\tx := 0\n\tgo func() {\n\t\tmuX.Lock()\n\t\tx = 1\n\t\tmuX.Unlock()\n\t}()\n}\n".into(),
        });
        let strategy = first(&llm, &r).map(|c| c.strategy);
        assert_eq!(strategy, Some(StrategyKind::MutexGuard));
    }

    #[test]
    fn classify_example_recognises_core_idioms() {
        assert_eq!(
            classify_example("m := make(map[int]int)", "var m sync.Map"),
            Some(StrategyKind::MapToSyncMap)
        );
        assert_eq!(
            classify_example("cnt = cnt + 1", "atomic.AddInt64(&cnt, 1)"),
            Some(StrategyKind::AtomicCounter)
        );
        assert_eq!(
            classify_example(
                "for _, v := range xs {\n\tgo use(v)\n}",
                "for _, v := range xs {\n\tv := v\n\tgo use(v)\n}"
            ),
            Some(StrategyKind::PrivatizeLoopVar)
        );
        assert_eq!(
            classify_example(
                "go func() {\n\twg.Add(1)\n}()",
                "wg.Add(1)\ngo func() {\n}()"
            ),
            Some(StrategyKind::MoveWgAddBeforeGo)
        );
        assert_eq!(classify_example("x := 1", "x := 1"), None);
    }

    #[test]
    fn enumerate_goes_past_the_first_success() {
        let llm = SynthLlm::new(ModelTier::O1Preview, 3);
        let r = req(ERR_RACE, "err");
        let cands: Vec<Candidate> = llm.enumerate(&r, &prompt(&r), 8).collect();
        assert!(cands.len() > 1, "only {} candidates", cands.len());
        // Confidence is ordered with rank and stays in (0, 1].
        for w in cands.windows(2) {
            assert!(w[0].confidence >= w[1].confidence - 1e-9);
        }
        for c in &cands {
            assert!(c.confidence > 0.0 && c.confidence <= 1.0 + 1e-9);
            golite::parse_file(&c.code).expect("candidate code parses");
        }
    }

    #[test]
    fn repair_is_deterministic_and_reapplies_the_strategy() {
        let llm = SynthLlm::new(ModelTier::Gpt4Turbo, 9);
        let r = req(ERR_RACE, "err");
        let p = prompt(&r);
        let cand = &llm.enumerate(&r, &p, 4).next().expect("candidate");
        let a = llm.repair(&r, &p, cand, "inconsistent-lock", 0);
        let b = llm.repair(&r, &p, cand, "inconsistent-lock", 0);
        let (a, b) = (a.expect("repair applies"), b.expect("repair applies"));
        assert_eq!(a.code, b.code);
        assert_eq!(a.strategy, cand.strategy);
        // A different iteration ordinal rolls fresh dice (possibly the
        // same outcome, but the draw is keyed differently).
        let c = llm.repair(&r, &p, cand, "inconsistent-lock", 1).unwrap();
        assert_eq!(c.strategy, cand.strategy);
    }

    #[test]
    fn low_tier_on_hard_strategy_often_degrades() {
        // ChannelResult is hard for Turbo without guidance: across seeds
        // a substantial fraction of attempts must be degraded — their
        // code differs from the same strategy rendered unbotched.
        let src = r#"package p

import "context"

func F(ctx context.Context) error {
	resultChan := make(chan int, 1)
	var err error
	go func() {
		var result int
		result, err = evaluate()
		resultChan <- result
		use(result)
	}()
	select {
	case r := <-resultChan:
		use(r)
	case <-ctx.Done():
		use(0)
	}
	return err
}

func evaluate() (int, error) { return 1, nil }
func use(x int)              {}
"#;
        let r = req(src, "err");
        let p = prompt(&r);
        let mut degraded = 0;
        let mut produced = 0;
        for seed in 0..40 {
            let llm = SynthLlm::new(ModelTier::Gpt4Turbo, seed);
            let cand = llm.enumerate(&r, &p, 4).next();
            if let Some(cand) = cand {
                produced += 1;
                let clean = p.render(cand.strategy, &cand.target, 0).ok();
                if clean.as_deref() != Some(cand.code.as_str()) {
                    degraded += 1;
                }
            }
        }
        assert!(produced > 0);
        assert!(
            degraded * 5 >= produced,
            "Turbo should degrade noticeably on hard fixes: {degraded}/{produced}"
        );
    }
}
